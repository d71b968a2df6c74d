package flatmap

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New[int](0)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map returned a value")
	}
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 3) // overwrite
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = %d,%v want 3,true", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d want 2", m.Len())
	}
	if !m.Del("a") || m.Del("a") {
		t.Fatal("Del(a) should succeed once then fail")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) after unrelated delete = %d,%v", v, ok)
	}
}

// TestZeroValue: the zero Map is an empty map that owns no table until
// its first Put; reads and deletes on it neither panic nor allocate.
func TestZeroValue(t *testing.T) {
	var m Map[int]
	if n := testing.AllocsPerRun(10, func() {
		if _, ok := m.Get("a"); ok || m.Del("a") || m.Len() != 0 {
			t.Fatal("zero map is not empty")
		}
		m.Each(func(string, int) { t.Fatal("Each visited an entry of the zero map") })
		m.Reset()
	}); n != 0 || m.keys != nil {
		t.Fatalf("reads of the zero map allocated (%v allocs/run, table %d slots)", n, len(m.keys))
	}
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 || m.Len() != 1 || len(m.keys) != minSize {
		t.Fatalf("after first Put: Get = %d,%v Len %d table %d", v, ok, m.Len(), len(m.keys))
	}
	if !m.Del("a") || m.Len() != 0 {
		t.Fatal("Del after first Put failed")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("emptied map still answers")
	}
}

func TestEmptyStringKey(t *testing.T) {
	// "" is a legal key: occupancy is tracked out of band, not by a
	// sentinel key value.
	m := New[string](0)
	m.Put("", "zero")
	if v, ok := m.Get(""); !ok || v != "zero" {
		t.Fatalf(`Get("") = %q,%v`, v, ok)
	}
	if !m.Del("") {
		t.Fatal(`Del("") failed`)
	}
	if _, ok := m.Get(""); ok {
		t.Fatal(`"" survived deletion`)
	}
}

// TestSlot: a missing key is inserted at the zero value and a present
// one is found, and a write through the returned pointer is the stored
// value until the next insert (which may grow the table and move it).
func TestSlot(t *testing.T) {
	var m Map[int]
	p, found := m.Slot("a")
	if found || *p != 0 || m.Len() != 1 {
		t.Fatalf("Slot of a missing key: found %v, value %d, Len %d", found, *p, m.Len())
	}
	if v, ok := m.Get("a"); !ok || v != 0 {
		t.Fatalf("inserted key: Get = %d,%v want 0,true", v, ok)
	}
	*p = 7
	if q, found := m.Slot("a"); !found || q != p || *q != 7 || m.Len() != 1 {
		t.Fatalf("Slot of a present key: found %v, same slot %v, value %d, Len %d", found, q == p, *q, m.Len())
	}
	// Inserts up to the growth threshold keep the pointer valid.
	for i := 0; m.Len() < minSize*3/4; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
		*p++
	}
	if v, _ := m.Get("a"); v != 7+minSize*3/4-1 {
		t.Fatalf("after %d inserts: Get(a) = %d, want the value written through the pointer", minSize*3/4-1, v)
	}
	// The next insert grows the table: the value moves, unchanged.
	m.Slot("grow")
	if len(m.keys) != 2*minSize {
		t.Fatalf("table has %d slots, want a grown %d", len(m.keys), 2*minSize)
	}
	if v, _ := m.Get("a"); v != 7+minSize*3/4-1 {
		t.Fatalf("after growth: Get(a) = %d", v)
	}
}

func TestReset(t *testing.T) {
	m := New[int](0)
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	capBefore := len(m.keys)
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if len(m.keys) != capBefore {
		t.Fatal("Reset changed table capacity")
	}
	for i := 0; i < 100; i++ {
		if _, ok := m.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d survived Reset", i)
		}
	}
	m.Put("x", 7)
	if v, ok := m.Get("x"); !ok || v != 7 {
		t.Fatalf("map unusable after Reset: %d,%v", v, ok)
	}
}

func TestGrowthPreservesEntries(t *testing.T) {
	m := New[int](0)
	const n = 10000
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%06d", i), i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(fmt.Sprintf("key-%06d", i)); !ok || v != i {
			t.Fatalf("key-%06d = %d,%v", i, v, ok)
		}
	}
}

func TestNewWithHintSkipsGrowth(t *testing.T) {
	m := New[int](1000)
	tableBefore := len(m.keys)
	for i := 0; i < 1000; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if len(m.keys) != tableBefore {
		t.Fatalf("hinted map grew from %d to %d slots", tableBefore, len(m.keys))
	}
}

// TestDifferentialVsMap drives a Map and a built-in map through the same
// random operation stream (put/overwrite/delete/reset) and checks full
// agreement after every batch — the same oracle pattern the gossip
// seenTable fuzz test uses.
func TestDifferentialVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New[int](0)
	ref := make(map[string]int)
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(500)) }

	check := func(step int) {
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len %d != ref %d", step, m.Len(), len(ref))
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("step %d: Get(%q) = %d,%v want %d,true", step, k, got, ok, want)
			}
		}
		seen := 0
		m.Each(func(k string, v int) {
			if want, ok := ref[k]; !ok || want != v {
				t.Fatalf("step %d: Each visited %q=%d, ref has %d,%v", step, k, v, want, ok)
			}
			seen++
		})
		if seen != len(ref) {
			t.Fatalf("step %d: Each visited %d entries, ref has %d", step, seen, len(ref))
		}
	}

	for step := 0; step < 200; step++ {
		for op := 0; op < 100; op++ {
			switch r := rng.Float64(); {
			case r < 0.55:
				k, v := key(), rng.Int()
				m.Put(k, v)
				ref[k] = v
			case r < 0.95:
				k := key()
				_, want := ref[k]
				if got := m.Del(k); got != want {
					t.Fatalf("Del(%q) = %v, ref says %v", k, got, want)
				}
				delete(ref, k)
			default:
				if rng.Intn(50) == 0 { // rare wipe, like C14
					m.Reset()
					ref = make(map[string]int)
				}
			}
		}
		check(step)
	}
}

// FuzzVsMap is the fuzzer-driven version of the differential test: the
// input bytes encode an operation stream.
func FuzzVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 128, 3, 255, 4})
	f.Add([]byte("put-del-put-del"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New[uint8](0)
		ref := make(map[string]uint8)
		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i], data[i+1]
			k := fmt.Sprintf("k%d", kb)
			switch op % 3 {
			case 0:
				m.Put(k, op)
				ref[k] = op
			case 1:
				_, want := ref[k]
				if got := m.Del(k); got != want {
					t.Fatalf("Del(%q) = %v, ref %v", k, got, want)
				}
				delete(ref, k)
			case 2:
				gotV, gotOK := m.Get(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("Get(%q) = %d,%v want %d,%v", k, gotV, gotOK, wantV, wantOK)
				}
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("Len %d != ref %d", m.Len(), len(ref))
		}
	})
}

// BenchmarkMillionKeyPut measures bulk load at the million-key scale the
// soft layer must survive.
func BenchmarkMillionKeyPut(b *testing.B) {
	keys := makeKeys(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New[uint64](len(keys))
		for j, k := range keys {
			m.Put(k, uint64(j))
		}
	}
}

// BenchmarkMillionKeyGet measures steady-state lookups against a loaded
// million-key table.
func BenchmarkMillionKeyGet(b *testing.B) {
	keys := makeKeys(1 << 20)
	m := New[uint64](len(keys))
	for j, k := range keys {
		m.Put(k, uint64(j))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(keys[i&(len(keys)-1)]); !ok {
			b.Fatal("missing key")
		}
	}
}

func makeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	return keys
}
