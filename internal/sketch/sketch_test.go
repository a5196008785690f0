package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func mustSketcher(t *testing.T, cfg Config) *Sketcher {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// randomDoc synthesizes a term-frequency map: a topical core shared across
// the corpus plus document-specific noise, the shape the corpus package
// generates.
func randomDoc(rng *rand.Rand, topic int) map[string]int {
	tf := make(map[string]int)
	for i := 0; i < 20+rng.Intn(30); i++ {
		tf[fmt.Sprintf("topic%02d-term%02d", topic, rng.Intn(25))]++
	}
	for i := 0; i < 10+rng.Intn(20); i++ {
		tf[fmt.Sprintf("noise-%03d", rng.Intn(400))]++
	}
	return tf
}

// TestSketchDeterministic pins the cross-run determinism contract: two
// independently constructed sketchers over the same configuration produce
// byte-identical serialized sketches for the same document.
func TestSketchDeterministic(t *testing.T) {
	cfgs := []Config{
		{Enabled: true},
		{Enabled: true, Dims: 32, Seed: 7},
		{Enabled: true, Dims: 333, Seed: 0xdeadbeef},
	}
	for _, cfg := range cfgs {
		a := mustSketcher(t, cfg)
		b := mustSketcher(t, cfg)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 50; i++ {
			tf := randomDoc(rng, i%5)
			sa, sb := a.SketchBytes(tf), b.SketchBytes(tf)
			if !bytes.Equal(sa, sb) {
				t.Fatalf("cfg %+v doc %d: sketches differ", cfg, i)
			}
			// A fresh map with the same contents — insertion order must not
			// leak into the projection.
			tf2 := make(map[string]int, len(tf))
			for k, v := range tf {
				tf2[k] = v
			}
			if !bytes.Equal(sa, a.SketchBytes(tf2)) {
				t.Fatalf("cfg %+v doc %d: map iteration order leaked into sketch", cfg, i)
			}
		}
	}
}

// TestSketchSeedSeparation checks different seeds give different projections
// (the directions actually depend on the seed).
func TestSketchSeedSeparation(t *testing.T) {
	a := mustSketcher(t, Config{Enabled: true, Seed: 1})
	b := mustSketcher(t, Config{Enabled: true, Seed: 2})
	tf := map[string]int{"alpha": 3, "beta": 1, "gamma": 7}
	if bytes.Equal(a.SketchBytes(tf), b.SketchBytes(tf)) {
		t.Fatalf("different seeds produced identical sketches")
	}
}

// quantCosineEps bounds |cosine(quantized) − cosine(float projection)|.
// Quantizing to 127 levels perturbs each component by at most maxAbs/254;
// propagated through the cosine that is a ~1/127-scale perturbation per
// vector, so 0.035 holds with a wide margin at 64+ dims. The property test
// asserts the band on every seeded pair rather than trusting the argument.
const quantCosineEps = 0.035

// TestQuantizedCosineBand is the quantization round-trip property: for
// seeded random document pairs the int8 cosine stays within the epsilon
// band of the float64 cosine of the unquantized projections.
func TestQuantizedCosineBand(t *testing.T) {
	for _, dims := range []int{64, 128, 256} {
		s := mustSketcher(t, Config{Enabled: true, Dims: dims, Seed: 11})
		rng := rand.New(rand.NewSource(int64(dims)))
		worst := 0.0
		for i := 0; i < 200; i++ {
			ta, tb := randomDoc(rng, i%4), randomDoc(rng, (i+rng.Intn(4))%4)
			pa, pb := s.Project(ta), s.Project(tb)
			want := floatCosine(pa, pb)
			got := vectorCosine(Quantize(pa), Quantize(pb))
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
		if worst > quantCosineEps {
			t.Fatalf("dims %d: quantized cosine deviates %.4f > eps %.4f", dims, worst, quantCosineEps)
		}
		t.Logf("dims %d: worst quantization deviation %.5f (eps %.3f)", dims, worst, quantCosineEps)
	}
}

// TestQuantizedRankOrder is the rank-preservation property: for pairs whose
// float cosines are separated by more than twice the epsilon band, the
// quantized cosines order identically.
func TestQuantizedRankOrder(t *testing.T) {
	s := mustSketcher(t, Config{Enabled: true, Dims: 128, Seed: 23})
	rng := rand.New(rand.NewSource(99))
	q := randomDoc(rng, 0)
	pq := s.Project(q)
	vq := Quantize(pq)

	type cand struct {
		f float64 // float cosine vs the query
		g float64 // quantized cosine vs the query
	}
	var cands []cand
	for i := 0; i < 150; i++ {
		d := randomDoc(rng, i%6)
		pd := s.Project(d)
		cands = append(cands, cand{f: floatCosine(pq, pd), g: vectorCosine(vq, Quantize(pd))})
	}
	checked := 0
	for i := range cands {
		for j := range cands {
			if cands[i].f > cands[j].f+2*quantCosineEps {
				checked++
				if cands[i].g <= cands[j].g {
					t.Fatalf("pair separated by %.4f in float cosine inverted after quantization (%.4f vs %.4f)",
						cands[i].f-cands[j].f, cands[i].g, cands[j].g)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no sufficiently separated pairs generated; test is vacuous")
	}
	t.Logf("checked %d separated pairs", checked)
}

// TestCodecRoundTrip: encode/decode is the identity on valid vectors, and
// the serialized scorers agree with the decoded ones.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		v := make(Vector, 1+rng.Intn(300))
		for j := range v {
			v[j] = int8(rng.Intn(256) - 128)
		}
		raw, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Vector
		if err := back.UnmarshalBinary(raw); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !bytes.Equal(toBytes(v), toBytes(back)) {
			t.Fatalf("round trip changed the vector")
		}
		w := make(Vector, len(v))
		for j := range w {
			w[j] = int8(rng.Intn(256) - 128)
		}
		rawW, _ := w.MarshalBinary()
		if got, want := CosineBytes(raw, rawW), vectorCosine(v, w); got != want {
			t.Fatalf("CosineBytes %.6f != Cosine %.6f", got, want)
		}
	}
}

func toBytes(v Vector) []byte {
	out := make([]byte, len(v))
	for i, q := range v {
		out[i] = byte(q)
	}
	return out
}

// TestMalformedScoresZero: garbage sketches score 0 rather than failing the
// query.
func TestMalformedScoresZero(t *testing.T) {
	s := mustSketcher(t, Config{Enabled: true, Dims: 16})
	good := s.SketchBytes(map[string]int{"a": 1, "b": 2})
	bad := [][]byte{nil, {}, {0xff}, {formatV1}, {formatV1, 200}, append(append([]byte{}, good...), 0x01)}
	for i, b := range bad {
		if got := CosineBytes(good, b); got != 0 {
			t.Fatalf("bad[%d]: cosine %v, want 0", i, got)
		}
		if got := CosineBytes(b, good); got != 0 {
			t.Fatalf("bad[%d]: cosine %v, want 0", i, got)
		}
		if _, ok := components(b); ok {
			t.Fatalf("bad[%d]: components accepted it", i)
		}
	}
	if _, ok := components(good); !ok {
		t.Fatalf("well-formed sketch reported invalid")
	}
	// Mismatched widths are not comparable either.
	s8 := mustSketcher(t, Config{Enabled: true, Dims: 8})
	other := s8.SketchBytes(map[string]int{"a": 1})
	if got := CosineBytes(good, other); got != 0 {
		t.Fatalf("width mismatch: cosine %v, want 0", got)
	}
}

// TestSelfCosine: a non-degenerate sketch scores 1 against itself.
func TestSelfCosine(t *testing.T) {
	s := mustSketcher(t, Config{Enabled: true})
	raw := s.SketchBytes(map[string]int{"x": 2, "y": 5, "z": 1})
	if got := CosineBytes(raw, raw); got != 1 {
		t.Fatalf("self cosine %v, want exactly 1", got)
	}
}

// TestConfigValidate covers the configuration edges.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config must validate: %v", err)
	}
	if err := (Config{Enabled: true}.FillDefaults()).Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	for _, cfg := range []Config{
		{Enabled: true, Dims: -1, RouteTerms: 1},
		{Enabled: true, Dims: MaxDims + 1, RouteTerms: 1},
		{Enabled: true, Dims: 8, RouteTerms: -2},
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v must not validate", cfg)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Fatalf("New on a disabled config must fail")
	}
	if c := (Config{Enabled: true}).FillDefaults(); c.Dims != DefaultDims || c.RouteTerms != DefaultRouteTerms {
		t.Fatalf("FillDefaults left %+v", c)
	}
}

// floatCosine is the float64 cosine of two projections — the reference the
// quantized scorer is property-tested against.
func floatCosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// vectorCosine is the exact cosine similarity of two decoded quantized
// vectors, the reference CosineBytes is checked against: integer dot
// product and norms, one float division at the end.
func vectorCosine(v, o Vector) float64 {
	if len(v) != len(o) || len(v) == 0 {
		return 0
	}
	var dot, nv, no int64
	for i := range v {
		a, b := int64(v[i]), int64(o[i])
		dot += a * b
		nv += a * a
		no += b * b
	}
	if nv == 0 || no == 0 {
		return 0
	}
	return float64(dot) / math.Sqrt(float64(nv)*float64(no))
}
