package chordid

import (
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashKeyDeterministic(t *testing.T) {
	a := HashKey("database")
	b := HashKey("database")
	if a != b {
		t.Fatalf("HashKey not deterministic: %v vs %v", a, b)
	}
	c := HashKey("databases")
	if a == c {
		t.Fatalf("distinct keys collided: %v", a)
	}
}

func TestFromUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 256, 1 << 20, 1<<63 + 12345, ^uint64(0)} {
		if got := FromUint64(v).Uint64(); got != v {
			t.Errorf("FromUint64(%d).Uint64() = %d", v, got)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	id := HashKey("chord")
	parsed, err := hex.DecodeString(id.String())
	if err != nil {
		t.Fatalf("String is not hex: %v", err)
	}
	if len(parsed) != Bytes || ID(parsed) != id {
		t.Fatalf("round trip mismatch: %x vs %v", parsed, id)
	}
}

func TestCmp(t *testing.T) {
	a, b := FromUint64(5), FromUint64(9)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("Cmp misordered small values")
	}
	// High-byte difference must dominate.
	var hi ID
	hi[0] = 1
	if hi.Cmp(FromUint64(^uint64(0))) != 1 {
		t.Fatal("Cmp ignored high bytes")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less inconsistent with Cmp")
	}
}

func TestAddSubInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var a, b ID
		rng.Read(a[:])
		rng.Read(b[:])
		if got := a.Add(b).Sub(b); got != a {
			t.Fatalf("(a+b)-b != a for a=%v b=%v", a, b)
		}
	}
}

func TestAddWraps(t *testing.T) {
	var max ID
	for i := range max {
		max[i] = 0xff
	}
	if got := max.Add(FromUint64(1)); got != (ID{}) {
		t.Fatalf("max+1 = %v, want 0", got)
	}
	if got := (ID{}).Sub(FromUint64(1)); got != max {
		t.Fatalf("0-1 = %v, want max", got)
	}
}

func TestBetweenNoWrap(t *testing.T) {
	a, m, b := FromUint64(10), FromUint64(20), FromUint64(30)
	if !m.Between(a, b) {
		t.Error("20 not in (10,30)")
	}
	if a.Between(a, b) || b.Between(a, b) {
		t.Error("endpoints must be excluded from open interval")
	}
	if FromUint64(5).Between(a, b) || FromUint64(35).Between(a, b) {
		t.Error("points outside (10,30) reported inside")
	}
}

func TestBetweenWrap(t *testing.T) {
	a, b := FromUint64(1000), FromUint64(10) // arc wraps through 0
	for _, v := range []uint64{1001, 5, 0} {
		if !FromUint64(v).Between(a, b) {
			t.Errorf("%d not in wrapped arc (1000,10)", v)
		}
	}
	for _, v := range []uint64{500, 10, 1000} {
		if FromUint64(v).Between(a, b) {
			t.Errorf("%d wrongly in wrapped arc (1000,10)", v)
		}
	}
}

func TestBetweenDegenerate(t *testing.T) {
	a := FromUint64(42)
	if a.Between(a, a) {
		t.Error("a in (a,a): the only excluded point is a itself")
	}
	if !FromUint64(7).Between(a, a) {
		t.Error("(a,a) must cover the whole ring except a")
	}
}

func TestBetweenInclusiveVariants(t *testing.T) {
	a, b := FromUint64(10), FromUint64(30)
	if !b.BetweenRightIncl(a, b) {
		t.Error("b not in (a,b]")
	}
	if a.BetweenRightIncl(a, b) {
		t.Error("a in (a,b]")
	}
}

func TestDistance(t *testing.T) {
	a, b := FromUint64(100), FromUint64(40)
	if d := b.Distance(a).Uint64(); d != 60 {
		t.Errorf("distance 40->100 = %d, want 60", d)
	}
	// Wrapping distance: from 100 clockwise to 40 crosses zero.
	d := a.Distance(b)
	want := FromUint64(40).Sub(FromUint64(100))
	if d != want {
		t.Errorf("wrapped distance = %v, want %v", d, want)
	}
}

// Property: Between(a,b) partitions the ring — for any distinct a, b, every
// id is in exactly one of (a,b) and [b,a).
func TestBetweenPartitionProperty(t *testing.T) {
	f := func(av, bv, idv uint64) bool {
		a, b, id := FromUint64(av), FromUint64(bv), FromUint64(idv)
		if a == b {
			return true
		}
		in1 := id.Between(a, b)
		in2 := id == b || id.Between(b, a) // [b,a)
		return in1 != in2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative and associative mod 2^128.
func TestAddAlgebraProperty(t *testing.T) {
	comm := func(x, y uint64) bool {
		a, b := HashKey(string(rune(x%1000))+"a"), FromUint64(y)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(x, y, z uint64) bool {
		a, b, c := FromUint64(x), FromUint64(y), FromUint64(z)
		return a.Add(b).Add(c) == a.Add(b.Add(c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

// Property: clockwise distances around the full circle sum to zero.
func TestDistanceCycleProperty(t *testing.T) {
	f := func(x, y, z uint64) bool {
		a, b, c := FromUint64(x), FromUint64(y), FromUint64(z)
		total := a.Distance(b).Add(b.Distance(c)).Add(c.Distance(a))
		return total == ID{}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestShort(t *testing.T) {
	id := HashKey("short")
	if len(id.Short()) != 8 {
		t.Fatalf("Short() = %q, want 8 hex digits", id.Short())
	}
	if id.String()[:8] != id.Short() {
		t.Fatal("Short is not a prefix of String")
	}
}
