package perplexity

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"llmbench/internal/trace"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := GenerateCorpus(7, 64, 60000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusDeterministic(t *testing.T) {
	a, err := GenerateCorpus(3, 64, 5000, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateCorpus(3, 64, 5000, 500)
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("corpus must be deterministic in the seed")
		}
	}
}

func TestCorpusErrors(t *testing.T) {
	if _, err := GenerateCorpus(1, 2, 5000, 500); err == nil {
		t.Error("tiny vocab must fail")
	}
	if _, err := GenerateCorpus(1, 64, 10, 500); err == nil {
		t.Error("tiny train must fail")
	}
}

func TestTokensInRange(t *testing.T) {
	c := testCorpus(t)
	for _, tok := range c.Train {
		if tok < 0 || tok >= c.Vocab {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	c := testCorpus(t)
	if _, err := Train(nil, 0.5); err == nil {
		t.Error("nil corpus must fail")
	}
	if _, err := Train(c, 0); err == nil {
		t.Error("zero capacity must fail")
	}
	if _, err := Train(c, 1.5); err == nil {
		t.Error("capacity > 1 must fail")
	}
}

func TestProbIsDistribution(t *testing.T) {
	c := testCorpus(t)
	m, err := Train(c, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities over the whole vocabulary must sum to ~1 for a
	// few contexts.
	for _, ctx := range [][2]int{{0, 1}, {5, 9}, {63, 63}} {
		sum := 0.0
		for tok := 0; tok < c.Vocab; tok++ {
			p := m.Prob(ctx[0], ctx[1], tok)
			if p < 0 {
				t.Fatalf("negative probability at ctx %v tok %d", ctx, tok)
			}
			sum += p
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("ctx %v: probabilities sum to %v", ctx, sum)
		}
	}
}

func TestHigherCapacityLowerPerplexity(t *testing.T) {
	c := testCorpus(t)
	var prev float64 = math.Inf(1)
	for _, cap_ := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		m, err := Train(c, cap_)
		if err != nil {
			t.Fatal(err)
		}
		ppl, err := m.Perplexity(c)
		if err != nil {
			t.Fatal(err)
		}
		if ppl >= prev {
			t.Errorf("capacity %v: ppl %v not below previous %v", cap_, ppl, prev)
		}
		prev = ppl
	}
}

func TestEvaluatorMatchesPaperLayout(t *testing.T) {
	ev, err := NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ev.ModelPerplexity("LLaMA-2-7B")
	if err != nil {
		t.Fatal(err)
	}
	mistral, _ := ev.ModelPerplexity("Mistral-7B")
	l3, _ := ev.ModelPerplexity("LLaMA-3-8B")
	bloom, _ := ev.ModelPerplexity("Bloom-7.1B")
	opt, _ := ev.ModelPerplexity("OPT-6.7B")

	// §V-2: LLaMA-2-7B has the best perplexity (MHSA); Mistral is
	// close behind ("only 0.09 higher"); OPT/Bloom trail far behind.
	if !(l2 < mistral && mistral < l3) {
		t.Errorf("ordering wrong: L2=%v Mistral=%v L3=%v", l2, mistral, l3)
	}
	if d := mistral - l2; d <= 0 || d > 0.3 {
		t.Errorf("Mistral gap = %v, want small (paper: 0.09)", d)
	}
	if bloom < opt {
		t.Errorf("Bloom (%v) must trail OPT (%v)", bloom, opt)
	}
	// The whole scatter lives in the paper's 3–5.5 band.
	for _, name := range ScatterModels() {
		ppl, err := ev.ModelPerplexity(name)
		if err != nil {
			t.Fatal(err)
		}
		if ppl < 2.5 || ppl > 5.6 {
			t.Errorf("%s: ppl %v outside the paper's band", name, ppl)
		}
	}
}

func TestEvaluatorUnknownModel(t *testing.T) {
	ev, err := NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ModelPerplexity("GPT-5"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestEvaluatorCacheConsistent(t *testing.T) {
	ev, err := NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ev.ModelPerplexity("DeciLM-7B")
	b, _ := ev.ModelPerplexity("DeciLM-7B")
	if a != b {
		t.Error("repeated evaluation must be identical")
	}
}

func TestPerplexityBounds(t *testing.T) {
	c := testCorpus(t)
	f := func(capRaw uint8) bool {
		cap_ := 0.05 + 0.95*float64(capRaw)/255
		m, err := Train(c, cap_)
		if err != nil {
			return false
		}
		ppl, err := m.Perplexity(c)
		// Perplexity must be between 1 and vocab size for an
		// interpolated model with a uniform floor.
		return err == nil && ppl > 1 && ppl < float64(c.Vocab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// --- differential tests for the dense count tables ----------------------
//
// refModel is the map-of-maps model the package used to retrain per
// capacity, kept as the oracle: Prob and Perplexity must match it bit
// for bit, and the scatter perplexities are pinned as hex floats.

// refModel is the former Model: nested count maps rebuilt per call to
// Train, with each context's total re-summed on every lookup.
type refModel struct {
	capacity float64
	vocab    int
	uni      map[int]float64
	bi       map[int]map[int]float64    // prev1 -> next -> count
	tri      map[[2]int]map[int]float64 // (prev2, prev1) -> next -> count
	uniTotal float64
}

func refTrain(c *Corpus, capacity float64) *refModel {
	m := &refModel{
		capacity: capacity,
		vocab:    c.Vocab,
		uni:      make(map[int]float64),
		bi:       make(map[int]map[int]float64),
		tri:      make(map[[2]int]map[int]float64),
	}
	t := c.Train
	for i, tok := range t {
		m.uni[tok]++
		m.uniTotal++
		if i >= 1 {
			if m.bi[t[i-1]] == nil {
				m.bi[t[i-1]] = make(map[int]float64)
			}
			m.bi[t[i-1]][tok]++
		}
		if i >= 2 {
			key := [2]int{t[i-2], t[i-1]}
			if m.tri[key] == nil {
				m.tri[key] = make(map[int]float64)
			}
			m.tri[key][tok]++
		}
	}
	return m
}

func refDist(counts map[int]float64, tok int) (p, total float64, ok bool) {
	if counts == nil {
		return 0, 0, false
	}
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0, false
	}
	return counts[tok] / total, total, true
}

func (m *refModel) prob(prev2, prev1, tok int) float64 {
	c := m.capacity
	l3 := 0.52 + 0.45*c
	l2 := 0.6 * (1 - l3)
	rest := 1 - l3 - l2
	l1 := rest * 0.9
	l0 := rest * 0.1
	var p float64
	if p3, n, ok := refDist(m.tri[[2]int{prev2, prev1}], tok); ok {
		conf := n / (n + 2)
		p += l3 * conf * p3
		backoff := l3 * (1 - conf)
		l1 += backoff * 0.9
		l0 += backoff * 0.1
	} else {
		l1 += l3 * 0.9
		l0 += l3 * 0.1
	}
	if p2, n, ok := refDist(m.bi[prev1], tok); ok {
		conf := n / (n + 2)
		p += l2 * conf * p2
		backoff := l2 * (1 - conf)
		l1 += backoff * 0.9
		l0 += backoff * 0.1
	} else {
		l1 += l2 * 0.9
		l0 += l2 * 0.1
	}
	p += l1 * (m.uni[tok] / m.uniTotal)
	p += l0 / float64(m.vocab)
	return p
}

func (m *refModel) perplexity(c *Corpus) float64 {
	var nll float64
	n := 0
	for i := 2; i < len(c.Test); i++ {
		nll -= math.Log(m.prob(c.Test[i-2], c.Test[i-1], c.Test[i]))
		n++
	}
	return math.Exp(nll / float64(n))
}

// randomCorpus draws i.i.d. tokens from a skewed distribution over the
// first half of the vocabulary (so the upper half never appears in
// training and its contexts exercise the backoff branch), with a
// short train split so many in-vocabulary contexts are unseen too.
func randomCorpus(seed uint64, vocab, trainLen, testLen int) *Corpus {
	rng := trace.NewRNG(seed)
	draw := func(n, hi int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(1 + rng.Intn(hi))
		}
		return out
	}
	return &Corpus{Vocab: vocab, Train: draw(trainLen, (vocab+1)/2), Test: draw(testLen, vocab)}
}

func TestModelMatchesReference(t *testing.T) {
	for _, vocab := range []int{8, 13, 64, 128} {
		// Every (context, token) pair is compared, vocab³ per model,
		// so the largest vocabulary gets one corpus and the extreme
		// capacities only.
		seeds, capacities := []uint64{1, 2, 3}, []float64{1e-9, 0.5, 1.0}
		if vocab == 128 {
			seeds, capacities = seeds[:1], []float64{1e-9, 1.0}
		}
		for _, seed := range seeds {
			c := randomCorpus(seed*131+uint64(vocab), vocab, 40*vocab, 20*vocab)
			sawBackoff, sawTrigram := false, false
			for _, capacity := range capacities {
				m, err := Train(c, capacity)
				if err != nil {
					t.Fatal(err)
				}
				ref := refTrain(c, capacity)
				for a := 0; a < vocab; a++ {
					for b := 0; b < vocab; b++ {
						if ref.tri[[2]int{a, b}] == nil {
							sawBackoff = true
						} else {
							sawTrigram = true
						}
						for tok := 0; tok < vocab; tok++ {
							got, want := m.Prob(a, b, tok), ref.prob(a, b, tok)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("vocab %d seed %d cap %v: Prob(%d,%d,%d) = %x, reference %x",
									vocab, seed, capacity, a, b, tok, got, want)
							}
						}
					}
				}
				got, err := m.Perplexity(c)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.perplexity(c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("vocab %d seed %d cap %v: Perplexity = %x, reference %x", vocab, seed, capacity, got, want)
				}
			}
			if !sawBackoff || !sawTrigram {
				t.Fatalf("vocab %d seed %d: corpus must cover seen and unseen contexts (seen %v, unseen %v)",
					vocab, seed, sawTrigram, sawBackoff)
			}
		}
	}
}

// scatterGolden pins every scatter model's perplexity on the standard
// corpus, recorded from the map-based model.
var scatterGolden = map[string]float64{
	"Aquila-7B":  0x1.1e13d21fe4ee7p+02,
	"Bloom-7.1B": 0x1.5b5f0c3d3e52fp+02,
	"DeciLM-7B":  0x1.fcaa6c60351b6p+01,
	"GPT-J-6B":   0x1.35dff0ee29002p+02,
	"Gemma-7B":   0x1.f1fe9af035ab1p+01,
	"LLaMA-2-7B": 0x1.dbd1d46c23567p+01,
	"LLaMA-3-8B": 0x1.e87390bec07fcp+01,
	"LLaMA-7B":   0x1.063ffe3913b55p+02,
	"Mistral-7B": 0x1.e2d1b98bc4fc5p+01,
	"OPT-6.7B":   0x1.476215effdc75p+02,
	"Qwen1.5-7B": 0x1.0f11c8c203466p+02,
}

func TestScatterPerplexityGolden(t *testing.T) {
	ev, err := NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	names := ScatterModels()
	if len(names) != len(scatterGolden) {
		t.Fatalf("%d scatter models, %d goldens", len(names), len(scatterGolden))
	}
	for _, name := range names {
		got, err := ev.ModelPerplexity(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := scatterGolden[name]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: perplexity %x (%v), golden %x (%v)", name, got, got, want, want)
		}
	}
}

func TestTokenRangeErrors(t *testing.T) {
	good := func() *Corpus { return randomCorpus(5, 16, 500, 100) }
	cases := []struct {
		name   string
		mutate func(c *Corpus)
	}{
		{"negative train token", func(c *Corpus) { c.Train[7] = -1 }},
		{"train token = vocab", func(c *Corpus) { c.Train[0] = c.Vocab }},
		{"last train token too large", func(c *Corpus) { c.Train[len(c.Train)-1] = 1 << 40 }},
		{"negative test token", func(c *Corpus) { c.Test[3] = -5 }},
		{"test token = vocab", func(c *Corpus) { c.Test[len(c.Test)-1] = c.Vocab }},
		{"vocab smaller than tokens", func(c *Corpus) { c.Vocab = 4 }},
		{"zero vocab", func(c *Corpus) { c.Vocab = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := good()
			tc.mutate(c)
			if _, err := Train(c, 0.5); !errors.Is(err, ErrTokenRange) {
				t.Errorf("Train: err = %v, want ErrTokenRange", err)
			}
			if _, err := newEvaluator(c); !errors.Is(err, ErrTokenRange) {
				t.Errorf("newEvaluator: err = %v, want ErrTokenRange", err)
			}
		})
	}
}

func TestPerplexityTestTokenRange(t *testing.T) {
	m, err := Train(randomCorpus(9, 16, 500, 100), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		test []int
	}{
		{"token = model vocab", []int{1, 2, 16, 3}},
		{"negative token", []int{-1, 2, 3, 4}},
		{"corpus with a larger vocab", []int{1, 2, 3, 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Corpus{Vocab: 64, Train: nil, Test: tc.test}
			if _, err := m.Perplexity(c); !errors.Is(err, ErrTokenRange) {
				t.Errorf("Perplexity: err = %v, want ErrTokenRange", err)
			}
		})
	}
}

func TestVocabLimit(t *testing.T) {
	for _, tc := range []struct {
		vocab int
		ok    bool
	}{{maxVocab - 1, true}, {maxVocab, true}, {maxVocab + 1, false}, {1 << 20, false}} {
		_, errGen := GenerateCorpus(1, tc.vocab, 1000, 100)
		c := randomCorpus(2, tc.vocab, 1000, 100)
		_, errTrain := Train(c, 0.5)
		_, errEval := newEvaluator(c)
		for what, err := range map[string]error{"GenerateCorpus": errGen, "Train": errTrain, "newEvaluator": errEval} {
			if (err == nil) != tc.ok {
				t.Errorf("vocab %d: %s err = %v, want ok=%v", tc.vocab, what, err, tc.ok)
			}
		}
	}
}
