package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Hello, World! 42 foo-bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndPunctuation(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("?!... --- ;;;"); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Café au Lait")
	want := []string{"café", "au", "lait"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeLowercasesProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) {
				return false
			}
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStopWords(t *testing.T) {
	for _, w := range []string{"the", "is", "a", "with", "that", "into"} {
		if !IsStopWord(w) {
			t.Errorf("%q should be a stop word", w)
		}
	}
	for _, w := range []string{"database", "retrieval", "chord", "i", "he"} {
		if IsStopWord(w) {
			t.Errorf("%q should not be a stop word", w)
		}
	}
	if got := len(luceneStopWords); got != 33 {
		t.Errorf("Lucene default stop list has 33 entries, got %d", got)
	}
}

// Canonical examples from Porter's paper and the reference implementation's
// vocabulary, covering every step of the algorithm. Where Stem's fixed-point
// iteration (see the Stem doc comment) diverges from the single-pass 1980
// output, the expected value is the fixed point and the line says so.
func TestStemKnownVectors(t *testing.T) {
	cases := map[string]string{
		// step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// step 1b
		"feed":      "feed",
		"agreed":    "agr", // fixed point: "agre" re-stems to "agr"
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// step 1c
		"happy": "happi",
		"sky":   "sky",
		// step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "deci", // fixed point: "decis" sheds its plural-like s
		"hopefulness":    "hope",
		"callousness":    "callou", // fixed point: "callous" sheds its final s
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defen", // fixed point: "defens" sheds its final s
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// step 5
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "cea", // fixed point: "ceas" sheds its final s
		"controll": "control",
		"roll":     "roll",
		// general IR examples the corpus relies on
		"retrieval": "retriev",
		"databases": "databa", // fixed point: "databas" sheds its final s
		"indexing":  "index",
		"queries":   "queri",
		"networks":  "network",
		"learning":  "learn",
		"documents": "document",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWordsUnchanged(t *testing.T) {
	for _, w := range []string{"", "a", "is", "go", "ox"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonVocabulary(t *testing.T) {
	// Stem iterates the Porter pass to a fixed point, so idempotency holds by
	// construction; verify on a realistic vocabulary anyway so a regression in
	// the iteration would surface here before the fuzz target sees it.
	words := []string{
		"connection", "connections", "connective", "connected", "connecting",
		"relate", "relativity", "generalization", "oscillators", "peers",
		"distributed", "structured", "keywords", "similarity", "frequencies",
	}
	for _, w := range words {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Errorf("Stem not stable on %q: %q -> %q", w, once, twice)
		}
	}
}

func TestStemNeverGrowsProperty(t *testing.T) {
	f := func(s string) bool {
		// Constrain to plausible lowercase words.
		w := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, strings.ToLower(s))
		if len(w) > 30 {
			w = w[:30]
		}
		return len(Stem(w)) <= len(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStemUnifiesInflections(t *testing.T) {
	groups := [][]string{
		{"index", "indexes", "indexing", "indexed"},
		{"query", "queries", "queried", "querying"},
		{"compute", "computing", "computed", "computes"},
	}
	for _, g := range groups {
		stem := Stem(g[0])
		for _, w := range g[1:] {
			if got := Stem(w); got != stem {
				t.Errorf("Stem(%q) = %q, want %q (same group as %q)", w, got, stem, g[0])
			}
		}
	}
}

func TestAnalyzerDefaultPipeline(t *testing.T) {
	var a Analyzer
	got := a.Terms("The quick databases are indexing queries!")
	want := []string{"quick", "databa", "index", "queri"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerKeepStopWords(t *testing.T) {
	a := Analyzer{KeepStopWords: true, NoStemming: true}
	got := a.Terms("the cat sat")
	want := []string{"the", "cat", "sat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerNoStemming(t *testing.T) {
	a := Analyzer{NoStemming: true}
	got := a.Terms("indexing queries")
	want := []string{"indexing", "queries"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerMinLength(t *testing.T) {
	a := Analyzer{NoStemming: true, MinLength: 5}
	got := a.Terms("tiny word lengthy expression")
	want := []string{"lengthy", "expression"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestTermFreq(t *testing.T) {
	var a Analyzer
	tf, n := a.TermFreq("index the index and reindex the indexes")
	if n != 4 {
		t.Fatalf("length = %d, want 4 (stop words removed)", n)
	}
	if tf["index"] != 3 {
		t.Fatalf("tf[index] = %d, want 3 (index, index, indexes)", tf["index"])
	}
	if tf["reindex"] != 1 {
		t.Fatalf("tf[reindex] = %d, want 1", tf["reindex"])
	}
}

func TestTermFreqEmpty(t *testing.T) {
	var a Analyzer
	tf, n := a.TermFreq("")
	if n != 0 || len(tf) != 0 {
		t.Fatalf("TermFreq(\"\") = %v, %d", tf, n)
	}
}

func TestStemRobustToNonASCII(t *testing.T) {
	// The stemmer operates on bytes; multi-byte runes must pass through
	// without panicking or corrupting length accounting.
	for _, w := range []string{"café", "naïve", "日本語", "ação", "überlegen"} {
		got := Stem(w)
		if len(got) > len(w) {
			t.Errorf("Stem(%q) grew to %q", w, got)
		}
	}
}

func TestStemDigitsAndMixed(t *testing.T) {
	for _, w := range []string{"2024", "x86", "ipv6", "b2b", "123456789"} {
		if got := Stem(w); got == "" {
			t.Errorf("Stem(%q) produced empty string", w)
		}
	}
}

func TestStemAllConsonantsAndVowels(t *testing.T) {
	for _, w := range []string{"rhythm", "zzz", "aeiou", "yyyy", "sky"} {
		got := Stem(w)
		if got == "" {
			t.Errorf("Stem(%q) = empty", w)
		}
	}
}

func TestStemVeryLongWord(t *testing.T) {
	long := strings.Repeat("anti", 50) + "establishment"
	if got := Stem(long); len(got) == 0 || len(got) > len(long) {
		t.Fatalf("long word mishandled: %d -> %d bytes", len(long), len(got))
	}
}

func TestStopWordsAreNotStemTargets(t *testing.T) {
	// The pipeline removes stop words before stemming; verify no stop word
	// would stem into a content term that could collide surprisingly.
	var a Analyzer
	for w := range luceneStopWords {
		if got := a.Terms(w); len(got) != 0 {
			t.Errorf("stop word %q survived the pipeline as %v", w, got)
		}
	}
}

func TestTokenizeVsFieldsProperty(t *testing.T) {
	// For pure space-separated lowercase ASCII input, Tokenize must agree
	// with strings.Fields.
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return -1
			}, w)
			if w != "" {
				clean = append(clean, w)
			}
		}
		got := Tokenize(strings.Join(clean, " "))
		if len(got) != len(clean) {
			return false
		}
		for i := range got {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzerTermsDeterministic(t *testing.T) {
	var a Analyzer
	const input = "Databases are indexing; databases are retrieving!"
	first := a.Terms(input)
	for i := 0; i < 5; i++ {
		got := a.Terms(input)
		if !reflect.DeepEqual(got, first) {
			t.Fatal("Analyzer.Terms not deterministic")
		}
	}
}

func TestTermFreqAgreesWithTerms(t *testing.T) {
	var a Analyzer
	const input = "storage engines store and index stored data in storage"
	terms := a.Terms(input)
	tf, n := a.TermFreq(input)
	if n != len(terms) {
		t.Fatalf("length mismatch: %d vs %d", n, len(terms))
	}
	count := map[string]int{}
	for _, term := range terms {
		count[term]++
	}
	if !reflect.DeepEqual(tf, count) {
		t.Fatalf("TermFreq %v != recount %v", tf, count)
	}
}
