package chordid

import "testing"

func TestArcContains(t *testing.T) {
	a, b, c := FromUint64(100), FromUint64(200), FromUint64(300)
	arc := OwnerArc(a, b) // (100, 200]
	if arc.Contains(a) {
		t.Error("arc contains its exclusive lower bound")
	}
	if !arc.Contains(b) {
		t.Error("arc misses its inclusive upper bound")
	}
	if !arc.Contains(FromUint64(150)) || arc.Contains(c) {
		t.Error("interior/exterior membership wrong")
	}

	wrap := OwnerArc(c, a) // (300, 100]: wraps through zero
	if !wrap.Contains(FromUint64(50)) || !wrap.Contains(FromUint64(400)) {
		t.Error("wrapping arc misses members on either side of zero")
	}
	if wrap.Contains(FromUint64(150)) {
		t.Error("wrapping arc contains an excluded key")
	}
}

func TestArcFullAndSpan(t *testing.T) {
	x := FromUint64(42)
	full := OwnerArc(x, x)
	if !full.IsFull() {
		t.Error("(x,x] not reported full")
	}
	if !full.Contains(FromUint64(7)) || !full.Contains(x) {
		t.Error("full arc excludes a key")
	}
	half := OwnerArc(FromUint64(10), FromUint64(110))
	if got := half.Span().Uint64(); got != 100 {
		t.Errorf("Span = %d, want 100", got)
	}
	if full.Span().Uint64() == 0 {
		t.Error("full arc span is zero")
	}
}

func TestArcContainsKey(t *testing.T) {
	key := "chord"
	h := HashKey(key)
	arc := OwnerArc(h.Sub(FromUint64(1)), h)
	if !arc.ContainsKey(key) {
		t.Error("tight arc around the key's hash misses it")
	}
	outside := OwnerArc(h, h.Add(FromUint64(1)))
	if outside.ContainsKey(key) {
		t.Error("arc starting at the key's hash (exclusive) contains it")
	}
}
