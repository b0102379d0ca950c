package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/inference"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/saliency"
	"repro/internal/tensor"
)

// logitsReps is how many timed LogitsBatch calls each batch width gets.
const logitsReps = 20

// replayModules times the pruner, saliency, inference and checkpoint calls
// a personalization and a demotion make, on the run's own class sets, one
// call at a time on an idle system. Logits are timed on resident engines;
// a nil int8 engine is replaced by one compiled from the replayed clone.
func replayModules(w *world, sets [][]int, float32Eng, int8Eng *inference.Engine) (metrics, error) {
	o := pruneOptions.WithDefaults()
	sw := inference.NewSharedWeights(w.base)
	var sal, ft, prune, compile, enc, apply, save, load, deltaBytes []float64
	var pruned *nn.Classifier
	timed := func(dst *[]float64, fn func()) {
		start := time.Now()
		fn()
		*dst = append(*dst, ms(time.Since(start)))
	}
	for _, set := range sets {
		key := classKey(set)
		train := w.ds.MakeSplit("e2ebench-replay/"+key, set, trainPerClass)

		dense := w.build()
		w.base.CloneWeightsTo(dense)
		timed(&sal, func() { saliency.Compute(dense, train, o.BatchSize, o.Saliency) })
		opt := nn.NewSGD(o.LR, o.Momentum, o.WeightDecay)
		timed(&ft, func() { pruner.Finetune(dense, train, 1, o.BatchSize, opt, rand.New(rand.NewSource(o.Seed))) })

		pruned = w.build()
		w.base.CloneWeightsTo(pruned)
		var rep pruner.Report
		timed(&prune, func() { rep = pruner.NewCRISP(o).Prune(pruned, train) })
		var err error
		timed(&compile, func() {
			_, err = inference.NewWithOptions(pruned, o.BlockSize, o.NM, inference.CompileOptions{Shared: sw})
		})
		if err != nil {
			return nil, fmt.Errorf("replay compile {%s}: %w", key, err)
		}

		var delta []byte
		timed(&enc, func() { delta, err = checkpoint.EncodeModelDelta(w.base, pruned) })
		if err != nil {
			return nil, fmt.Errorf("replay delta {%s}: %w", key, err)
		}
		deltaBytes = append(deltaBytes, float64(len(delta)))
		dst := w.build()
		timed(&apply, func() { err = checkpoint.ApplyModelDelta(delta, w.base, dst) })
		if err != nil {
			return nil, fmt.Errorf("replay delta apply {%s}: %w", key, err)
		}

		var buf bytes.Buffer
		rec := checkpoint.PersonalizationRecord{Key: key, Classes: set, Report: rep}
		timed(&save, func() { err = checkpoint.SavePersonalization(&buf, rec, pruned) })
		if err != nil {
			return nil, fmt.Errorf("replay save {%s}: %w", key, err)
		}
		into := w.build()
		timed(&load, func() { _, err = checkpoint.LoadPersonalization(bytes.NewReader(buf.Bytes()), into) })
		if err != nil {
			return nil, fmt.Errorf("replay load {%s}: %w", key, err)
		}
	}

	if int8Eng == nil {
		var err error
		int8Eng, err = inference.NewWithOptions(pruned, o.BlockSize, o.NM, inference.CompileOptions{Precision: inference.Int8, Shared: sw})
		if err != nil {
			return nil, fmt.Errorf("replay int8 compile: %w", err)
		}
	}
	samples := w.ds.MakeSplit("e2ebench-replay-logits", sets[0], 8)
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i], _ = samples.Sample(i)
	}
	logits := func(eng *inference.Engine, xs []*tensor.Tensor) float64 {
		var d []float64
		for r := 0; r < logitsReps; r++ {
			timed(&d, func() { eng.LogitsBatch(xs) })
		}
		return median(d)
	}

	out := metrics{
		"saliency.compute_ms":             {Value: median(sal), Unit: "ms", N: len(sal)},
		"pruner.finetune_epoch_ms":        {Value: median(ft), Unit: "ms", N: len(ft)},
		"pruner.prune_ms":                 {Value: median(prune), Unit: "ms", N: len(prune)},
		"inference.compile_ms":            {Value: median(compile), Unit: "ms", N: len(compile)},
		"checkpoint.delta_encode_ms":      {Value: median(enc), Unit: "ms", N: len(enc)},
		"checkpoint.delta_apply_ms":       {Value: median(apply), Unit: "ms", N: len(apply)},
		"checkpoint.save_ms":              {Value: median(save), Unit: "ms", N: len(save)},
		"checkpoint.load_ms":              {Value: median(load), Unit: "ms", N: len(load)},
		"checkpoint.delta_bytes":          {Value: mean(deltaBytes), Unit: "bytes", N: len(deltaBytes)},
		"inference.logits_b1_ms.float32":  {Value: logits(float32Eng, xs[:1]), Unit: "ms", N: logitsReps},
		"inference.logits_b16_ms.float32": {Value: logits(float32Eng, xs), Unit: "ms", N: logitsReps},
		"inference.logits_b1_ms.int8":     {Value: logits(int8Eng, xs[:1]), Unit: "ms", N: logitsReps},
		"inference.logits_b16_ms.int8":    {Value: logits(int8Eng, xs), Unit: "ms", N: logitsReps},
	}
	return out, nil
}
