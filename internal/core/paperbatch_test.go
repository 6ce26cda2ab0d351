package core_test

import (
	"testing"

	"sensjoin/internal/core"
	"sensjoin/internal/workload"
)

// paperFractions is E1a's range of contributing fractions, 1% to 60%.
var paperFractions = []float64{0.01, 0.03, 0.05, 0.09, 0.25, 0.40, 0.60}

// BenchmarkPaperBatch is the paper's evaluation batch at library level:
// the 1500-node deployment, the 33% preset calibrated to each of E1a's
// contributing fractions, each run as SENS-Join and as the external
// join through RunPrepared, with the counters reset before every
// execution. One op is the whole batch of 14 executions.
func BenchmarkPaperBatch(b *testing.B) {
	r, err := core.NewRunner(core.SetupConfig{Nodes: 1500, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	preset := workload.Ratio33()
	var preps []*core.Prepared
	for _, f := range paperFractions {
		delta, _ := workload.Calibrate(r, preset, f)
		prep, err := r.Prepare(preset.Build(delta))
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prep)
	}
	methods := []func() core.Method{
		func() core.Method { return core.NewSENSJoin() },
		func() core.Method { return core.External{} },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prep := range preps {
			for _, m := range methods {
				r.Stats.Reset()
				if _, err := r.RunPrepared(prep, m(), 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.N*len(preps)*len(methods))/b.Elapsed().Seconds(), "exec/s")
}
