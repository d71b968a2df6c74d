package tuple

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"datadroplets/internal/node"
	"datadroplets/internal/wire"
)

func sample() *Tuple {
	return &Tuple{
		Key:     "user:42",
		Value:   []byte("payload"),
		Attrs:   map[string]float64{"age": 33, "score": -1.5},
		Tags:    []string{"eu", "premium"},
		Version: Version{Seq: 9, Writer: 3},
	}
}

func TestVersionCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Version
		want int
	}{
		{"equal", Version{1, 1}, Version{1, 1}, 0},
		{"seq wins", Version{2, 1}, Version{1, 9}, 1},
		{"seq loses", Version{1, 9}, Version{2, 1}, -1},
		{"writer breaks tie up", Version{1, 2}, Version{1, 1}, 1},
		{"writer breaks tie down", Version{1, 1}, Version{1, 2}, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Fatalf("Compare = %d, want %d", got, tt.want)
			}
			if (tt.want < 0) != tt.a.Less(tt.b) {
				t.Fatalf("Less inconsistent with Compare")
			}
		})
	}
}

func TestVersionNextAndZero(t *testing.T) {
	var v Version
	if !v.IsZero() {
		t.Fatal("zero version should report IsZero")
	}
	n := v.Next(7)
	if n.Seq != 1 || n.Writer != 7 || n.IsZero() {
		t.Fatalf("Next = %+v", n)
	}
	if n.String() != "1@n0007" {
		t.Fatalf("String = %q", n.String())
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Tuple)
		want   error
	}{
		{"valid", func(t *Tuple) {}, nil},
		{"empty key", func(t *Tuple) { t.Key = "" }, ErrEmptyKey},
		{"long key", func(t *Tuple) { t.Key = strings.Repeat("k", MaxKeyLen+1) }, ErrKeyTooLong},
		{"zero version", func(t *Tuple) { t.Version = Version{} }, ErrNoVersion},
		{"huge value", func(t *Tuple) { t.Value = make([]byte, MaxValueLen+1) }, ErrValueTooBig},
		{"seq at the ceiling", func(t *Tuple) { t.Version.Seq = MaxSeq }, nil},
		{"seq above the ceiling", func(t *Tuple) { t.Version.Seq = MaxSeq + 1 }, ErrSeqTooHigh},
		{"seq wraps next", func(t *Tuple) { t.Version.Seq = 1<<64 - 1 }, ErrSeqTooHigh},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tup := sample()
			tt.mutate(tup)
			if err := tup.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("Validate = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestValidateNil(t *testing.T) {
	var tup *Tuple
	if err := tup.Validate(); !errors.Is(err, ErrNoTuple) {
		t.Fatalf("Validate(nil) = %v, want %v", err, ErrNoTuple)
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := sample()
	c := orig.Clone()
	if !orig.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Value[0] = 'X'
	c.Attrs["age"] = 99
	c.Tags[0] = "us"
	if orig.Value[0] == 'X' || orig.Attrs["age"] == 99 || orig.Tags[0] == "us" {
		t.Fatal("clone aliases original state")
	}
	var nilT *Tuple
	if nilT.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
}

func TestEqual(t *testing.T) {
	a, b := sample(), sample()
	if !a.Equal(b) {
		t.Fatal("identical tuples unequal")
	}
	b.Attrs["age"] = 34
	if a.Equal(b) {
		t.Fatal("attr change not detected")
	}
	b = sample()
	b.Tags = []string{"eu"}
	if a.Equal(b) {
		t.Fatal("tag change not detected")
	}
	b = sample()
	b.Deleted = true
	if a.Equal(b) {
		t.Fatal("tombstone change not detected")
	}
}

func TestPrimaryTag(t *testing.T) {
	if sample().PrimaryTag() != "eu" {
		t.Fatal("PrimaryTag should be first tag")
	}
	if (&Tuple{}).PrimaryTag() != "" {
		t.Fatal("empty tags should yield empty primary tag")
	}
}

// roundTripCase is a tuple shape the codec must carry unchanged.
type roundTripCase struct {
	name string
	tup  *Tuple
}

func roundTripCases() []roundTripCase {
	return []roundTripCase{
		{"full", sample()},
		{"no value", &Tuple{Key: "k", Version: Version{1, 1}}},
		{"empty value present", &Tuple{Key: "k", Value: []byte{}, Version: Version{1, 1}}},
		{"tombstone", &Tuple{Key: "k", Version: Version{5, 2}, Deleted: true}},
		{"attrs only", &Tuple{Key: "k", Attrs: map[string]float64{"x": 1}, Version: Version{1, 1}}},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, tt := range roundTripCases() {
		t.Run(tt.name, func(t *testing.T) {
			enc := Marshal(tt.tup)
			dec, n, err := Unmarshal(enc)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("consumed %d of %d bytes", n, len(enc))
			}
			if !tt.tup.Equal(dec) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", tt.tup, dec)
			}
		})
	}
}

func TestUnmarshalStream(t *testing.T) {
	a, b := sample(), &Tuple{Key: "other", Version: Version{2, 2}}
	buf := AppendMarshal(Marshal(a), b)
	da, n, err := Unmarshal(buf)
	if err != nil || !a.Equal(da) {
		t.Fatalf("first decode failed: %v", err)
	}
	db, _, err := Unmarshal(buf[n:])
	if err != nil || !b.Equal(db) {
		t.Fatalf("second decode failed: %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid := Marshal(sample())
	tests := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", []byte{0x00, 0x01}, ErrBadMagic},
		{"bad version", []byte{wireMagic, 0x7f}, ErrBadVersion},
		{"truncated tail", valid[:len(valid)-3], ErrTruncated},
		{"truncated header", valid[:3], ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := Unmarshal(tt.buf)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Unmarshal err = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestCodecQuick round-trips randomly generated tuples.
func TestCodecQuick(t *testing.T) {
	f := func(key string, val []byte, seq uint64, writer uint32, deleted bool, a1, a2 float64, tag string) bool {
		if key == "" {
			key = "k"
		}
		if len(key) > MaxKeyLen {
			key = key[:MaxKeyLen]
		}
		if len(tag) > MaxKeyLen {
			tag = tag[:MaxKeyLen]
		}
		tup := &Tuple{
			Key:     key,
			Value:   val,
			Attrs:   map[string]float64{"a": a1, "b": a2},
			Tags:    []string{tag},
			Version: Version{Seq: seq, Writer: node.ID(writer)},
			Deleted: deleted,
		}
		dec, _, err := Unmarshal(Marshal(tup))
		if err != nil {
			return false
		}
		// NaN != NaN under Equal's float comparison; normalise.
		if a1 != a1 || a2 != a2 {
			return true
		}
		return tup.Equal(dec)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalNeverPanics fuzzes the decoder with random bytes: it may
// error but must not panic or over-read.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		if rng.Intn(4) == 0 && n >= 2 {
			buf[0], buf[1] = wireMagic, wireVersion // exercise deeper paths
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %x: %v", buf, r)
				}
			}()
			_, consumed, err := Unmarshal(buf)
			if err == nil && consumed > len(buf) {
				t.Fatalf("over-read: consumed %d of %d", consumed, len(buf))
			}
		}()
	}
}

// TestVersionPayload pins the 16-byte DDB1 version payload of PUT/DEL.
func TestVersionPayload(t *testing.T) {
	v := Version{Seq: 7, Writer: 2}
	enc := AppendVersion(nil, v)
	if want := []byte{0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2}; !bytes.Equal(enc, want) {
		t.Fatalf("AppendVersion = %x, want %x", enc, want)
	}
	got, err := ParseVersion(enc)
	if err != nil || got != v {
		t.Fatalf("version: got %v, %v", got, err)
	}
	if _, err := ParseVersion([]byte{1, 2, 3}); err == nil {
		t.Fatal("short version payload accepted")
	}
}

// countBody is an encoded tuple with an empty key, a zero version, no
// value and no attributes, cut off right before its attribute count
// (attrs) or its tag count (!attrs), followed by count.
func countBody(attrs bool, count uint64) []byte {
	b := []byte{wireMagic, wireVersion, 0, 0, 0, 0}
	if !attrs {
		b = append(b, 0)
	}
	return binary.AppendUvarint(b, count)
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalHostileCounts: the attribute and tag counts of a tuple
// body are checked against the bytes left before they size anything,
// as every DDN1 list count is, so a body of a few bytes claiming 65 536
// entries fails before allocating for them. A count the bytes can hold
// reserves at most 1<<16 entries (wire.MaxCountHint), so a full-size
// DDN1 frame whose first attribute or tag is garbage stays under the
// 8 MiB the DDN1 lists meet, and a count above the cap is an error.
func TestUnmarshalHostileCounts(t *testing.T) {
	for _, attrs := range []bool{true, false} {
		body := countBody(attrs, 1<<16)
		if len(body) > 12 {
			t.Fatalf("hostile body is %d bytes, want at most 12", len(body))
		}
		var err error
		if got := allocated(func() { _, _, err = Unmarshal(body) }); got >= 64<<10 {
			t.Errorf("attrs=%v: %d-byte body claiming 65536 entries allocated %d bytes, want under 64 KiB", attrs, len(body), got)
		}
		if err == nil {
			t.Errorf("attrs=%v: %d-byte body claiming 65536 entries decoded", attrs, len(body))
		}
	}
	frame := make([]byte, wire.MaxNodeFrame)
	for _, attrs := range []bool{true, false} {
		n := copy(frame, countBody(attrs, 1<<16))
		for i := 0; i < binary.MaxVarintLen64; i++ {
			frame[n+i] = 0xff // the first name's length prefix overflows
		}
		var err error
		if got := allocated(func() { _, _, err = Unmarshal(frame) }); got > 8<<20 {
			t.Errorf("attrs=%v: full-size frame with a garbage first entry allocated %d MiB, want at most 8", attrs, got>>20)
		}
		if err == nil {
			t.Errorf("attrs=%v: full-size frame with a garbage first entry decoded", attrs)
		}
		clear(frame[:n+binary.MaxVarintLen64])
	}
	// The caps stay errors where the bytes could hold the entries.
	for _, attrs := range []bool{true, false} {
		body := append(countBody(attrs, 1<<16+1), make([]byte, 10<<20)...)
		if _, _, err := Unmarshal(body); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("attrs=%v: 65537 entries: err = %v, want the limit error", attrs, err)
		}
	}
}

// FuzzUnmarshal: whatever the bytes, Unmarshal returns a tuple or an
// error without panicking and consumes no more than it was given, and a
// tuple it accepts re-encodes to bytes that decode to an equal tuple.
func FuzzUnmarshal(f *testing.F) {
	f.Add(Marshal(sample()))
	for _, tt := range roundTripCases() {
		f.Add(Marshal(tt.tup))
	}
	for _, attrs := range []bool{true, false} {
		f.Add(countBody(attrs, 1<<16))
		f.Add(countBody(attrs, 1<<64-1))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tup, consumed, err := Unmarshal(b)
		if err != nil {
			return
		}
		if consumed > len(b) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(b))
		}
		enc := Marshal(tup)
		again, n, err := Unmarshal(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("re-encoding of an accepted tuple: consumed %d of %d bytes, err %v", n, len(enc), err)
		}
		if !bytes.Equal(Marshal(again), enc) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, Marshal(again))
		}
		for _, v := range tup.Attrs {
			if math.IsNaN(v) {
				return // NaN != NaN under Equal; the bytes matched above
			}
		}
		if !tup.Equal(again) {
			t.Fatalf("re-encoding decodes to a different tuple:\n in: %+v\nout: %+v", tup, again)
		}
	})
}

func BenchmarkMarshal(b *testing.B) {
	tup := sample()
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendMarshal(buf[:0], tup)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	enc := Marshal(sample())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}
