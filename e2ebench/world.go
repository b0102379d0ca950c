package main

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

// The deployment every workload serves. The dataset and the universal model
// are fixed (they do not depend on --seed), as are the tenants' class sets
// (populationSeed): the seed drives the workload's inputs — tenant
// QoS classes, traffic draws and samples — not the system.
const (
	numClasses     = 16
	modelWidth     = 1
	pretrainEpochs = 1
	pretrainPer    = 8
	trainPerClass  = 8
	testPerClass   = 16
	datasetSeed    = 7
	modelSeed      = 8
	pretrainSeed   = 9
)

// pruneOptions are crisp-load's pruning options (κ=0.7, 2:4, 4×4 blocks,
// one prune round, one fine-tune epoch) with a smaller batch and a larger
// step: with trainPerClass samples per class crisp-load's batch of 16 and
// LR of 0.01 leave one SGD step per epoch and tenants near chance.
var pruneOptions = pruner.Options{
	Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
	Iterations: 1, FinetuneEpochs: 1, BatchSize: 4, LR: 0.1,
}

// world is the dataset plus the pretrained universal model every server in
// a fleet shares.
type world struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
}

// newWorld generates the dataset and pretrains the universal model.
func newWorld() *world {
	ds := data.New(data.Config{
		Name: "e2ebench", NumClasses: numClasses, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: datasetSeed,
	})
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(modelSeed)), numClasses, modelWidth)
	}
	base := build()
	all := make([]int, numClasses)
	for i := range all {
		all[i] = i
	}
	pruner.Finetune(base, ds.MakeSplit("pretrain", all, pretrainPer), pretrainEpochs, 16,
		nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(pretrainSeed)))
	return &world{ds: ds, build: build, base: base}
}

// deploymentParams records the fixed deployment in the run record.
func deploymentParams() map[string]any {
	return map[string]any{
		"model": string(models.ResNet), "width": modelWidth, "num_classes": numClasses,
		"image": "3x8x8", "pretrain_epochs": pretrainEpochs, "pretrain_per_class": pretrainPer,
		"train_per_class": trainPerClass, "test_per_class": testPerClass,
		"prune": pruneOptions, "serve": "defaults: MaxBatch 16, Linger 2ms, QoS on",
	}
}

// serverOptions is the serving configuration shared by every workload;
// callers set precision, budget and snapshot directory on top.
func serverOptions() serve.Options {
	return serve.Options{
		Prune:         pruneOptions,
		TrainPerClass: trainPerClass,
		TestPerClass:  testPerClass,
	}
}
