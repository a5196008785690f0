package wire

import (
	"reflect"
	"sync"
	"testing"
)

// TestRegisteredTypesRoundTrip round-trips the zero value of every registered
// type — nil slices and empty strings, what a hand-written codec most easily
// gets wrong.
func TestRegisteredTypesRoundTrip(t *testing.T) {
	for _, proto := range BinaryPrototypes() {
		data, ok := AppendBinary(nil, proto)
		if !ok {
			t.Fatalf("%T listed by BinaryPrototypes but not encodable", proto)
		}
		out, err := DecodeBinary(data)
		if err != nil || !reflect.DeepEqual(out, proto) {
			t.Fatalf("%T zero value round trip = %#v, %v", proto, out, err)
		}
	}
}

type late struct{ N uint64 }

var registerLate sync.Once

// TestRegisterConcurrent installs a codec while other goroutines encode,
// decode and list through the registry; the race detector checks the locking.
func TestRegisterConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _ := AppendBinary(nil, binPayload{Term: "x"})
			if _, err := DecodeBinary(data); err != nil {
				t.Error(err)
			}
			AppendBinary(nil, late{1}) // encodable or not, depending on the race
			BinaryPrototypes()
		}()
	}
	registerLate.Do(func() {
		RegisterBinary(KindTestBase+8, late{},
			func(e *Encoder, v any) { e.Uint(v.(late).N) },
			func(d *Decoder) any { return late{d.Uint()} })
	})
	wg.Wait()
	if _, ok := AppendBinary(nil, late{1}); !ok {
		t.Fatal("codec registered concurrently is missing")
	}
}
