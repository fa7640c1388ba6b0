package check

import (
	"context"
	"testing"
)

// BenchmarkVcebenchCheck tracks the invariant harness's own cost — one full
// property sweep over one generated spec — so `vcebench check` stays cheap
// enough for CI.
func BenchmarkVcebenchCheck(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), Options{Seeds: 1, BaseSeed: 1, OutDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatalf("invariant failure during benchmark: %+v", res.Failures)
		}
	}
}
