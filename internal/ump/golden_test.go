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

// goldenCase is one pinned plan on a generated corpus.
type goldenCase struct {
	profile string // gen profile the corpus is generated from
	seed    uint64
	kind    string // "oump", "cump", or "fump" asked for size pairs (half λ)
	eexp    float64
	size    int
	digest  string
}

// goldenConfig is one Options configuration a golden row is solved under.
type goldenConfig struct {
	name string
	opts Options
}

var goldenPlans = []goldenCase{
	{"small", 1, "oump", 1.5, 51, "c778e3a4bafdc3ebfea8b65294d7a485a71c6a131a324054f22ab08a50ad6e31"},
	{"small", 1, "oump", 1.6, 66, "d06c88b2eaeb3773cf0571a6d84f840cc8f170f283d594f1d27001a95304e584"},
	{"small", 1, "oump", 1.7, 79, "302e0619e48edd200124d523a313786bf209f86eb58048f1ae9a4b5c5ae907be"},
	{"small", 1, "oump", 1.8, 92, "75a83687fbc4159ac51b3830c26ed017d0795a429e506701b0dec63cb6524c86"},
	{"small", 1, "oump", 1.9, 103, "9826602ca2c31e73f50183253e19f7738e9efad188d35311aa6d8002bdca9ebf"},
	{"small", 1, "oump", 2.0, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{"small", 1, "oump", 2.1, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{"small", 1, "oump", 2.2, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{"small", 1, "oump", 2.3, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{"small", 1, "oump", 2.4, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{"small", 1, "oump", 2.5, 129, "848c3c1f553d9fd8b49b666de24d6ca9797de16aa829056f49383c7b144ad100"},
	{"small", 2, "oump", 1.5, 44, "db0dddec17a017b8f61214110835dc38f4281241c4796dde78f8dd97c354386a"},
	{"small", 2, "oump", 1.6, 61, "c68b05029ab6704e720a41087cee986eb9782e6b38f879eb49d16e3d2407d584"},
	{"small", 2, "oump", 1.7, 78, "3dd42fe2063eb38f228a04e2ec0ad22684266242d5cce3736913b932ef7ea963"},
	{"small", 2, "oump", 1.8, 91, "ad50fb20745ccbd77e0b603adbafaf73cda081ca36cacfc1c8f45b70622f579d"},
	{"small", 2, "oump", 1.9, 100, "2634005821d83f185bef44177086486a84e8210bb670963f5ff4dde85a8b9f6d"},
	{"small", 2, "oump", 2.0, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{"small", 2, "oump", 2.1, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{"small", 2, "oump", 2.2, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{"small", 2, "oump", 2.3, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{"small", 2, "oump", 2.4, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{"small", 2, "oump", 2.5, 120, "c280db6edd2773659888852d240f0ad39d3e1d69a718c10e6d62c1b9cc0f21fc"},
	{"small", 1, "fump", 2.0, 64, "1bc631a2cdcf34a4f8aa8d1d921afb581712ba3ea5784061c8ae221298b75246"},
	{"small", 1, "cump", 2.0, 104, "fb0fb0bef0ad9c7a225bf16dbd75217c699eae53226af88cdf67ef6ca76bfb43"},
	// Plan format 2 moved these three; under format 1 they were
	// c0cbc36c3f01… (seed 24, both rows) and 6a94b261fea2… (F-UMP).
	{"small", 24, "oump", 2.0, 129, "d45a1a008221d8a10c642e050a663ce231ec838e868bdbd34cb7df5ebd331f75"},
	{"small", 24, "oump", 2.25, 129, "d45a1a008221d8a10c642e050a663ce231ec838e868bdbd34cb7df5ebd331f75"},
	{"small", 2, "fump", 2.0, 60, "ac9849aaa8f331b1650debcc3e3eb70791c0c7cd583e660a65266f59a31a15f8"},
	// The plans the dense explicit-inverse engine (deleted since) gave on
	// tiny, tiny-sharded and small-sharded corpora at e^ε = 2, with F-UMP
	// asked for half the O-UMP size; the sparse engine matched every one.
	// Each row is solved at Parallelism 1 and 8.
	{"tiny", 1, "oump", 2.0, 12, "2a415487d38a42f00fcb94980984f0671712a07955b46887a40227ad7720b2e1"},
	{"tiny", 1, "fump", 2.0, 6, "4d736b49e54c26f3d1a4632ee7e7fb4fec191765ca5b290b0d468315cc95c1dd"},
	{"tiny", 1, "cump", 2.0, 12, "cf7d09b1144226cbd402d2f79d2066a83896005189d554adc9065d2fbee06b01"},
	{"tiny", 2, "oump", 2.0, 11, "550df3ed21ff41b293e2ba0e39d0817c416428d2de6f26290550122a460ecb97"},
	{"tiny", 2, "fump", 2.0, 5, "68834c1d735638368109d1f79ee24f044c2d8d3bbf8dd5f635e608924b9a9d55"},
	{"tiny", 2, "cump", 2.0, 9, "2312d87a6453f5fc431e499effaa3ef8c5e592112108b3456d249c4a8ea4af3f"},
	{"tiny", 3, "oump", 2.0, 12, "b41ce7bd58b3ee5c13e11377f4cf228a7e09dc1dbfba10de4fb1f25352a41054"},
	{"tiny", 3, "fump", 2.0, 6, "a8182a374c40288409f95acbaf0454d69528253244b8234e28e5c6a77da970d4"},
	{"tiny", 3, "cump", 2.0, 11, "5c6b0c7b898f309609e44aa0bdf770120431da0d9460d1c95cf222c5924d9219"},
	{"tiny-sharded", 1, "oump", 2.0, 10, "a330f456c6b982a733e53fedf78c58483a4e99f983ddb981d1ceb4991918bed0"},
	{"tiny-sharded", 1, "fump", 2.0, 5, "98c3e8e18af33b71d14d8098da5c5b6bd41a6e407f47c82f618330b6aac972fb"},
	{"tiny-sharded", 1, "cump", 2.0, 11, "5ffc3818a4fd36e1e6367e463880ef945ea831920f778f577ffa04ae546d5db0"},
	{"tiny-sharded", 2, "oump", 2.0, 11, "ce1f2f237e40e38e86e4d68e1bb3f6d6c07dc80c6c5a1fc06b95673ff0f30ed7"},
	{"tiny-sharded", 2, "fump", 2.0, 5, "fa5b6848c7f6dbd465bebe76718e8525d67abbed535417bde7216d19f4c2b929"},
	{"tiny-sharded", 2, "cump", 2.0, 9, "76ee2a45d79ac59b31359a7302bff58f3ba2a76701f59657b7e7d3743d761a21"},
	{"tiny-sharded", 3, "oump", 2.0, 10, "3b2c83ad0e964ebd65dc801f38461cf44a6ead5027709d4553c5499655eb3097"},
	{"tiny-sharded", 3, "fump", 2.0, 5, "95790f416d1b7c5fb7bd89d1cae6c90d801e66f1a19acbaa7005a0f0ee1fa9f8"},
	{"tiny-sharded", 3, "cump", 2.0, 11, "df0bb8c727a2ece5b58cf820686a705ff0aacfe406a8c51b29c7c2fa262ced66"},
	{"small-sharded", 1, "oump", 2.0, 141, "8726dc9b038518ec8387f1d4c868d7309fb7d99a9e7c3cca954e95b6e2a311df"},
	{"small-sharded", 1, "fump", 2.0, 70, "b826b6a4f630b996f8aa9234c6e643bfd1f7217ce174871e38ff5d30d1f8f7ef"},
	{"small-sharded", 1, "cump", 2.0, 109, "f714e44d73d58a003706286d88e8711555db7323e7f7917b72615bbb644d8f99"},
	{"small-sharded", 2, "oump", 2.0, 136, "bd710a3fe063ab93206a081862679129e8b607c128e4fffb3b941fa52dfe78dd"},
	{"small-sharded", 2, "fump", 2.0, 68, "6fdcf70b0a3633d69a338cfd8214db788f25ca3ec9889b280babe920d281beef"},
	{"small-sharded", 2, "cump", 2.0, 111, "8b4318a55dceae628015199bc377dfab0af53883a81230ad46fb2209d79ed1ce"},
	{"small-sharded", 3, "oump", 2.0, 139, "16a02fae8ed6a7215ec402e00039ac35c2fe9c684118e148da2adb4b6d2c6147"},
	{"small-sharded", 3, "fump", 2.0, 69, "be70648489cd2bce5f8638dea6f0ee92a745edbf8964a2f27778d0790b84df71"},
	{"small-sharded", 3, "cump", 2.0, 114, "a4c89e8114ad9c8db0853b10cd44adb82ae02713553a2531c8092ec7c3873d7f"},
}

// TestGoldenPlansSmall pins the plans (of PlanFormat) the LP engine
// produces on `small` corpora (one connected component of ~900 pairs, the
// LP size the benchmark's solve-cold workload serves): O-UMP over the e^ε
// ladder 1.5…2.5 (δ = 0.5) for generator seeds 1–2, one F-UMP and one
// C-UMP point, and the rows the last format change moved. The seed-1
// e^ε = 2 O-UMP row and the F-UMP and C-UMP rows are also solved with a
// component cache attached (what slserve runs) and under NoDecompose, and
// must give the same plans. A solver change that moves any row changes
// released bytes: it must bump PlanFormat and re-pin the table.
//
// Output sizes, and the equality of a row's plans across configurations,
// are asserted on every architecture. The count digests are asserted on
// amd64 only: the Go compiler may fuse multiply-adds on other
// architectures (arm64 among them), which can move a tie in the simplex
// and pick a different, equally optimal vertex.
func TestGoldenPlansSmall(t *testing.T) {
	checkGoldenPlans(t, func(gc goldenCase) bool { return gc.profile == "small" })
}

// TestEnginePlanEquality checks that the LP engine still gives the plans
// the dense explicit-inverse engine (deleted since) gave on the tiny,
// tiny-sharded and small-sharded rows of goldenPlans, at Parallelism 1 and
// 8, under the same per-architecture rules as TestGoldenPlansSmall.
func TestEnginePlanEquality(t *testing.T) {
	checkGoldenPlans(t, func(gc goldenCase) bool { return gc.profile != "small" })
}

// checkGoldenPlans solves every goldenPlans row that keep selects under
// each of its configurations and checks the pinned size and digest, and
// that all configurations of a row give the same plan.
func checkGoldenPlans(t *testing.T, keep func(goldenCase) bool) {
	t.Helper()
	type corpusKey struct {
		profile string
		seed    uint64
	}
	corpora := map[corpusKey]*searchlog.Log{}
	checkDigest := runtime.GOARCH == "amd64"
	for _, gc := range goldenPlans {
		if !keep(gc) {
			continue
		}
		key := corpusKey{gc.profile, gc.seed}
		if corpora[key] == nil {
			corpora[key] = decompCorpus(t, gc.profile, gc.seed)
		}
		pre := corpora[key]
		label := fmt.Sprintf("%s seed %d %s e^eps=%g", gc.profile, gc.seed, gc.kind, gc.eexp)
		params := dp.Params{Eps: math.Log(gc.eexp), Delta: 0.5}
		configs := []goldenConfig{{"default", Options{}}}
		switch {
		case gc.profile != "small":
			configs = []goldenConfig{
				{"parallelism 1", Options{Parallelism: 1}},
				{"parallelism 8", Options{Parallelism: 8}},
			}
		case gc.kind != "oump" || (gc.seed == 1 && gc.eexp == 2.0):
			// The same plans under the configuration slserve runs (a
			// component cache attached) and the one-component partition.
			configs = append(configs,
				goldenConfig{"comp-cache", Options{Comp: NewComponentCache(0)}},
				goldenConfig{"no-decompose", Options{NoDecompose: true}})
		}
		first := ""
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
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s: plan digest %s differs from the %s solve's %s", label, got, configs[0].name, first)
			}
		}
	}
}
