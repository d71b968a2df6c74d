package dht

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"datadroplets/internal/node"
	"datadroplets/internal/tuple"
)

// TestSequencerDifferentialVsMap drives the Sequencer and a plain-map
// reference implementation through the same random stream of
// Next/Observe/Wipe operations and demands full agreement — the oracle
// pattern of the gossip seenTable fuzz test.
func TestSequencerDifferentialVsMap(t *testing.T) {
	const self = node.ID(9)
	rng := rand.New(rand.NewSource(7))
	s := NewSequencer(self)
	ref := make(map[string]tuple.Version)
	refNext := func(key string) tuple.Version {
		v := ref[key].Next(self)
		ref[key] = v
		return v
	}
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(300)) }

	for step := 0; step < 20000; step++ {
		switch r := rng.Float64(); {
		case r < 0.5:
			k := key()
			got, want := s.Next(k), refNext(k)
			if got != want {
				t.Fatalf("step %d: Next(%q) = %+v want %+v", step, k, got, want)
			}
		case r < 0.8:
			k := key()
			v := tuple.Version{Seq: uint64(rng.Intn(50)), Writer: node.ID(rng.Intn(8) + 1)}
			s.Observe(k, v)
			if cur, ok := ref[k]; !ok || cur.Less(v) {
				ref[k] = v
			}
		case r < 0.99:
			k := key()
			gotV, gotOK := s.Latest(k)
			wantV, wantOK := ref[k]
			if gotOK != wantOK || gotV != wantV {
				t.Fatalf("step %d: Latest(%q) = %+v,%v want %+v,%v", step, k, gotV, gotOK, wantV, wantOK)
			}
		default:
			if rng.Intn(20) == 0 { // rare C14 wipe
				s.Wipe()
				ref = make(map[string]tuple.Version)
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, ref has %d", s.Len(), len(ref))
	}
	want := make([]string, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %q want %q", i, got[i], want[i])
		}
	}
}

// TestDirectoryDifferentialVsMap is the Directory counterpart: random
// AddHint/Hints/Wipe against a plain-map reference with the same
// oldest-first replacement policy.
func TestDirectoryDifferentialVsMap(t *testing.T) {
	const maxPerKey = 3
	rng := rand.New(rand.NewSource(11))
	d := NewDirectory(maxPerKey)
	ref := make(map[string][]node.ID)
	refAdd := func(key string, id node.ID) {
		hs := ref[key]
		for _, h := range hs {
			if h == id {
				return
			}
		}
		if len(hs) >= maxPerKey {
			copy(hs, hs[1:])
			hs[len(hs)-1] = id
			return
		}
		ref[key] = append(hs, id)
	}
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(200)) }
	id := func() node.ID { return node.ID(rng.Intn(12) + 1) }

	for step := 0; step < 20000; step++ {
		switch r := rng.Float64(); {
		case r < 0.5:
			k, h := key(), id()
			d.AddHint(k, h)
			refAdd(k, h)
		case r < 0.99:
			k := key()
			got, want := d.Hints(k), ref[k]
			if len(got) != len(want) {
				t.Fatalf("step %d: Hints(%q) = %v want %v", step, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Hints(%q) = %v want %v", step, k, got, want)
				}
			}
		default:
			if rng.Intn(20) == 0 {
				d.Wipe()
				ref = make(map[string][]node.ID)
			}
		}
	}
	if d.Len() != len(ref) {
		t.Fatalf("Len = %d, ref has %d", d.Len(), len(ref))
	}
}

// FuzzSequencerVsMap encodes an op stream in the fuzz input: every pair
// of bytes is (op, key); versions observed are derived from the key byte
// so the corpus stays meaningful.
func FuzzSequencerVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 0})
	f.Add([]byte("interleaved-ops"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const self = node.ID(3)
		s := NewSequencer(self)
		ref := make(map[string]tuple.Version)
		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i], data[i+1]
			k := fmt.Sprintf("k%d", kb)
			switch op % 4 {
			case 0:
				got := s.Next(k)
				want := ref[k].Next(self)
				ref[k] = want
				if got != want {
					t.Fatalf("Next(%q) = %+v want %+v", k, got, want)
				}
			case 1:
				v := tuple.Version{Seq: uint64(kb), Writer: node.ID(op%7 + 1)}
				s.Observe(k, v)
				if cur, ok := ref[k]; !ok || cur.Less(v) {
					ref[k] = v
				}
			case 2:
				gotV, gotOK := s.Latest(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("Latest(%q) = %+v,%v want %+v,%v", k, gotV, gotOK, wantV, wantOK)
				}
			case 3:
				if op == 3 { // a single opcode value wipes, not a quarter of them
					s.Wipe()
					ref = make(map[string]tuple.Version)
				}
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("Len = %d, ref has %d", s.Len(), len(ref))
		}
	})
}

// BenchmarkSequencerMillionKeys loads one million distinct keys through
// Next — the million-key write path the soft layer must sustain.
func BenchmarkSequencerMillionKeys(b *testing.B) {
	keys := millionKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSequencer(1)
		for _, k := range keys {
			s.Next(k)
		}
	}
}

// BenchmarkSequencerHotNext measures the steady-state resequencing rate
// against a loaded million-key index.
func BenchmarkSequencerHotNext(b *testing.B) {
	keys := millionKeys()
	s := NewSequencer(1)
	for _, k := range keys {
		s.Next(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(keys[i&(len(keys)-1)])
	}
}

// BenchmarkDirectoryMillionKeys loads hints for one million keys and then
// reads them back — the directory's read-skip-discovery path at scale.
func BenchmarkDirectoryMillionKeys(b *testing.B) {
	keys := millionKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDirectory(4)
		for j, k := range keys {
			d.AddHint(k, node.ID(j%7+1))
		}
	}
}

func millionKeys() []string {
	keys := make([]string, 1<<20)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	return keys
}
