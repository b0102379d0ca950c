package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// zipfS is the skew of tenant popularity in every workload.
const zipfS = 1.2

// zipf draws ranks in [0, n) with P(k) ∝ (k+1)^-s for any n up to the size
// it was built for, so a caller whose population grows can keep drawing
// from one table.
type zipf struct {
	cum []float64 // cum[k] = Σ_{j≤k} (j+1)^-s
}

func newZipf(s float64, maxN int) *zipf {
	z := &zipf{cum: make([]float64, maxN)}
	acc := 0.0
	for k := range z.cum {
		acc += math.Pow(float64(k+1), -s)
		z.cum[k] = acc
	}
	return z
}

// draw returns a rank in [0, n).
func (z *zipf) draw(rng *rand.Rand, n int) int {
	u := rng.Float64() * z.cum[n-1]
	return sort.SearchFloat64s(z.cum[:n], u)
}

// distinctClassSets draws n class sets of the given sizes (cycled), none in
// exclude and none repeated, each sorted ascending. It fails when a size
// has fewer unused sets than asked for.
func distinctClassSets(rng *rand.Rand, n int, sizes []int, exclude map[string]bool) ([][]int, error) {
	need := map[int]int{}
	for i := 0; i < n; i++ {
		need[sizes[i%len(sizes)]]++
	}
	for k, want := range need {
		free := binomial(numClasses, k)
		for key := range exclude {
			if strings.Count(key, ",")+1 == k {
				free--
			}
		}
		if want > free {
			return nil, fmt.Errorf("%d class sets of size %d asked for, only %d unused of %d classes", want, k, free, numClasses)
		}
	}
	seen := map[string]bool{}
	for k := range exclude {
		seen[k] = true
	}
	out := make([][]int, 0, n)
	for len(out) < n {
		k := sizes[len(out)%len(sizes)]
		set := append([]int(nil), rng.Perm(numClasses)[:k]...)
		sort.Ints(set)
		key := classKey(set)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, set)
	}
	return out, nil
}

// binomial is n choose k.
func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// classKey is the serving layer's canonical key of a sorted class set.
func classKey(set []int) string {
	parts := make([]string, len(set))
	for i, c := range set {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// openLoopDue is the fixed-rate arrival schedule of an open loop: the i-th
// of n requests is due i/rate after the start.
func openLoopDue(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
