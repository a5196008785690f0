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

// TestRegisterConcurrent installs a codec while other goroutines size,
// encode, decode and list through the registry, which they read without a
// lock; the race detector checks that registration publishes a table no
// reader sees written.
func TestRegisterConcurrent(t *testing.T) {
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ready
			for j := 0; j < 50; j++ {
				v := binPayload{Term: "x", Query: []string{"y"}}
				data, _ := AppendBinary(nil, v)
				if _, err := DecodeBinary(data); err != nil {
					t.Error(err)
				}
				if got := Size(v); got != len(data)-2 {
					t.Errorf("Size = %d, encoded %d", got, len(data)-2)
				}
				// Encodable or not, depending on the race.
				if data, ok := AppendBinary(nil, late{1}); ok && Size(late{1}) != len(data)-2 {
					t.Errorf("Size(late) disagrees with its encoding")
				}
				BinaryPrototypes()
			}
		}()
	}
	close(ready)
	registerLate.Do(func() {
		Register(KindTestBase+8, late{}, func(w *Walker, v any) any {
			r, _ := v.(late)
			w.Uint(&r.N)
			return Decoded(w, r)
		})
	})
	wg.Wait()
	if _, ok := AppendBinary(nil, late{1}); !ok {
		t.Fatal("codec registered concurrently is missing")
	}
}
