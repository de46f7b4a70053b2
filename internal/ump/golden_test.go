package ump

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dpslog/internal/dp"
	"dpslog/internal/gen"
	"dpslog/internal/searchlog"
)

// planDigest is the SHA-256 of a plan's counts followed by its output size,
// each as a little-endian int64.
func planDigest(p *Plan) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range append(append([]int(nil), p.Counts...), p.OutputSize) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(c)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenCase is one pinned plan on a `small` corpus (one connected
// component of ~900 pairs, the LP size the benchmark's solve-cold workload
// serves).
type goldenCase struct {
	seed   uint64
	kind   string // "oump", "cump", or "fump" asked for size pairs (half λ)
	eexp   float64
	size   int
	digest string
}

// goldenConfig is one Options configuration a golden row is solved under.
type goldenConfig struct {
	name string
	opts Options
}

var goldenPlans = []goldenCase{
	{1, "oump", 1.5, 51, "c778e3a4bafdc3ebfea8b65294d7a485a71c6a131a324054f22ab08a50ad6e31"},
	{1, "oump", 1.6, 66, "d06c88b2eaeb3773cf0571a6d84f840cc8f170f283d594f1d27001a95304e584"},
	{1, "oump", 1.7, 79, "302e0619e48edd200124d523a313786bf209f86eb58048f1ae9a4b5c5ae907be"},
	{1, "oump", 1.8, 92, "75a83687fbc4159ac51b3830c26ed017d0795a429e506701b0dec63cb6524c86"},
	{1, "oump", 1.9, 103, "9826602ca2c31e73f50183253e19f7738e9efad188d35311aa6d8002bdca9ebf"},
	{1, "oump", 2.0, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{1, "oump", 2.1, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{1, "oump", 2.2, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{1, "oump", 2.3, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{1, "oump", 2.4, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{1, "oump", 2.5, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{2, "oump", 1.5, 44, "db0dddec17a017b8f61214110835dc38f4281241c4796dde78f8dd97c354386a"},
	{2, "oump", 1.6, 61, "c68b05029ab6704e720a41087cee986eb9782e6b38f879eb49d16e3d2407d584"},
	{2, "oump", 1.7, 78, "3dd42fe2063eb38f228a04e2ec0ad22684266242d5cce3736913b932ef7ea963"},
	{2, "oump", 1.8, 91, "ad50fb20745ccbd77e0b603adbafaf73cda081ca36cacfc1c8f45b70622f579d"},
	{2, "oump", 1.9, 100, "2634005821d83f185bef44177086486a84e8210bb670963f5ff4dde85a8b9f6d"},
	{2, "oump", 2.0, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{2, "oump", 2.1, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{2, "oump", 2.2, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{2, "oump", 2.3, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{2, "oump", 2.4, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{2, "oump", 2.5, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{1, "fump", 2.0, 64, "1bc631a2cdcf34a4f8aa8d1d921afb581712ba3ea5784061c8ae221298b75246"},
	{1, "cump", 2.0, 104, "fb0fb0bef0ad9c7a225bf16dbd75217c699eae53226af88cdf67ef6ca76bfb43"},
	// Plan format 2 moved these three; under format 1 they were
	// c0cbc36c3f01… (seed 24, both rows) and 6a94b261fea2… (F-UMP).
	{24, "oump", 2.0, 129, "d45a1a008221d8a10c642e050a663ce231ec838e868bdbd34cb7df5ebd331f75"},
	{24, "oump", 2.25, 129, "d45a1a008221d8a10c642e050a663ce231ec838e868bdbd34cb7df5ebd331f75"},
	{2, "fump", 2.0, 60, "ac9849aaa8f331b1650debcc3e3eb70791c0c7cd583e660a65266f59a31a15f8"},
}

// TestGoldenPlansSmall pins the plans (of PlanFormat) the default
// sparse-LU engine produces on `small` corpora, the component size
// TestEnginePlanEquality does not reach: O-UMP over the e^ε ladder
// 1.5…2.5 (δ = 0.5) for generator seeds 1–2, one F-UMP and one C-UMP
// point, and the rows the last format change moved. The seed-1 e^ε = 2
// O-UMP row and the F-UMP and C-UMP rows are also solved with a component
// cache attached (what slserve runs) and under NoDecompose, and must give
// the same plans. A solver change that moves any row changes released
// bytes: it must bump PlanFormat and re-pin the table.
//
// Output sizes are asserted on every architecture. The count digests are
// asserted on amd64 only: the Go compiler may fuse multiply-adds on other
// architectures (arm64 among them), which can move a tie in the simplex
// and pick a different, equally optimal vertex.
func TestGoldenPlansSmall(t *testing.T) {
	corpora := map[uint64]*searchlog.Log{}
	for _, gc := range goldenPlans {
		if corpora[gc.seed] == nil {
			raw, err := gen.Generate(gen.Small(), gc.seed)
			if err != nil {
				t.Fatal(err)
			}
			corpora[gc.seed], _ = searchlog.Preprocess(raw)
		}
	}
	checkDigest := runtime.GOARCH == "amd64"
	for _, gc := range goldenPlans {
		label := fmt.Sprintf("seed %d %s e^eps=%g", gc.seed, gc.kind, gc.eexp)
		pre := corpora[gc.seed]
		params := dp.Params{Eps: math.Log(gc.eexp), Delta: 0.5}
		configs := []goldenConfig{{"default", Options{}}}
		if gc.kind != "oump" || (gc.seed == 1 && gc.eexp == 2.0) {
			// The same plans under the configuration slserve runs (a
			// component cache attached) and the one-component partition.
			configs = append(configs,
				goldenConfig{"comp-cache", Options{Comp: NewComponentCache(0)}},
				goldenConfig{"no-decompose", Options{NoDecompose: true}})
		}
		for _, cfg := range configs {
			label := label + " " + cfg.name
			var plan *Plan
			var err error
			switch gc.kind {
			case "oump":
				plan, err = MaxOutputSize(pre, params, cfg.opts)
			case "fump":
				plan, err = FrequentSupport(pre, params, 0.002, gc.size, cfg.opts)
			case "cump":
				plan, err = Combined(pre, params, 0.002, CombinedWeights{SizeWeight: 1, DistanceWeight: 1}, cfg.opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := planDigest(plan)
			if plan.OutputSize != gc.size {
				t.Errorf("%s: output size %d, want %d", label, plan.OutputSize, gc.size)
			}
			if checkDigest && got != gc.digest {
				t.Errorf("%s: plan digest %s, want %s", label, got, gc.digest)
			}
		}
	}
}
