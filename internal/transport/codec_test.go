package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/gossip"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/repair"
	"datadroplets/internal/sizeest"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

func sampleTuple() *tuple.Tuple {
	return &tuple.Tuple{
		Key:     "users/42",
		Version: tuple.Version{Seq: 7, Writer: 3},
		Value:   []byte("payload bytes"),
		Attrs:   map[string]float64{"age": 29.5, "score": -1},
		Tags:    []string{"hot", "eu"},
	}
}

// codecCase is one message the DDN1 codec carries: what the sender
// encodes and what the receiver must decode. The two differ only where
// the codec's conventions say so: an empty list decodes as nil, while
// the version map keeps nil and empty distinct.
type codecCase struct {
	name      string
	msg, want any
	// mapOrder marks an encoding whose byte order follows Go's map
	// iteration; it has no line in testdata/ddn1_golden.txt.
	mapOrder bool
}

// same is a case that must decode to exactly what was encoded.
func same(name string, msg any) codecCase { return codecCase{name: name, msg: msg, want: msg} }

// codecCases is every message type the DDN1 codec carries, in both
// populated and zero/empty shapes.
func codecCases() []codecCase {
	t1, t2 := sampleTuple(), sampleTuple()
	t2.Key, t2.Value, t2.Deleted = "other", nil, true
	write := epidemic.WritePayload{Tuple: t1, Origin: 1, Entry: 2}
	twoVersions := repair.SyncVersions{Arc: node.Arc{Start: 1, Width: 2}, Versions: map[string]tuple.Version{"a": {Seq: 1, Writer: 2}, "b": {Seq: 9, Writer: 1}}}
	return []codecCase{
		same("rumor-write", gossip.RumorMsg{Rumor: gossip.Rumor{ID: 9, Hops: 2, Payload: write}}),
		same("rumor-no-payload", gossip.RumorMsg{Rumor: gossip.Rumor{ID: 11}}),
		same("digest-req", gossip.DigestReq{IDs: []uint64{1, 5, 1 << 60}}),
		same("digest-req-nil", gossip.DigestReq{}),
		{name: "digest-req-empty", msg: gossip.DigestReq{IDs: []uint64{}}, want: gossip.DigestReq{}},
		same("digest-resp", gossip.DigestResp{Rumors: []gossip.Rumor{{ID: 1, Hops: 3}, {ID: 2, Payload: write}}}),
		same("digest-resp-nil", gossip.DigestResp{}),
		same("store-ack", epidemic.StoreAck{Key: "k", Version: tuple.Version{Seq: 1, Writer: 9}}),
		same("store-ack-zero", epidemic.StoreAck{}),
		same("read-req", epidemic.ReadReq{Key: "k", ReqID: 77, Origin: 3, TTL: 4}),
		same("read-resp", epidemic.ReadResp{ReqID: 77, Tuple: t2}),
		same("read-resp-miss", epidemic.ReadResp{ReqID: 78}),
		same("vector-push", sizeest.VectorPush{Epoch: 3, Mins: []float64{0.25, 0.5}}),
		same("vector-push-nil", sizeest.VectorPush{Epoch: 4}),
		same("vector-reply", sizeest.VectorReply{Epoch: 3, Mins: []float64{0.125}}),
		same("walk-msg", &randomwalk.WalkMsg{SetID: 8, Origin: 1, TTL: 6, Query: randomwalk.Query{Point: 1 << 50, Key: "k"}}),
		same("walk-result", randomwalk.WalkResult{SetID: 8, Sample: randomwalk.Sample{Node: 4, Covers: true, HasKey: true}}),
		same("sync-req", repair.SyncReq{Arc: node.Arc{Start: 100, Width: 1 << 40}, Digest: 0xdeadbeef}),
		same("sync-versions", repair.SyncVersions{Arc: node.Arc{Start: 1, Width: 2}, Versions: map[string]tuple.Version{"x": {Seq: 3, Writer: 1}}, Coverage: []node.Arc{{Start: 0, Width: 10}, {Start: 50, Width: 5}}}),
		{name: "sync-versions-two-keys", msg: twoVersions, want: twoVersions, mapOrder: true},
		same("sync-versions-covers-nothing", repair.SyncVersions{Arc: node.Arc{Start: 1, Width: 2}}),
		same("sync-versions-empty-map", repair.SyncVersions{Arc: node.Arc{Start: 1, Width: 2}, Versions: map[string]tuple.Version{}}), // stays empty, not nil
		same("sync-pull", repair.SyncPull{Keys: []string{"a", "b"}}),
		same("sync-pull-nil", repair.SyncPull{}),
		same("sync-push", repair.SyncPush{Tuples: []*tuple.Tuple{t1}}),
		same("adopt-req", repair.AdoptReq{Arc: node.Arc{Start: 7, Width: 8}, Tuples: []*tuple.Tuple{t1, t2}}),
		same("seg-sync-req", repair.SegSyncReq{Arc: node.Arc{Start: 7, Width: 64}, Digests: []uint64{1, 2, 3, 4}}),
		same("supersede-query", repair.SupersedeQuery{Hints: []repair.KeyVersion{{Key: "k", Version: tuple.Version{Seq: 2, Writer: 8}}}}),
		same("supersede-query-nil", repair.SupersedeQuery{}),
		same("supersede-resp", repair.SupersedeResp{Held: []repair.KeyVersion{{Key: "h", Version: tuple.Version{Seq: 1}}}, Want: []string{"w"}, Newer: []*tuple.Tuple{t2}}),
		same("supersede-resp-nil", repair.SupersedeResp{}),
	}
}

// decodeMessage decodes one frame body through a fresh cursor; the
// read loop keeps one cursor per connection instead.
func decodeMessage(body []byte) (any, error) {
	var c wire.Cursor
	return decode(&c, body)
}

// encode is appendMessage for a case that must have an encoding.
func encode(t testing.TB, tc codecCase) []byte {
	t.Helper()
	body, ok := appendMessage(nil, tc.msg)
	if !ok {
		t.Fatalf("%s: %T has no DDN1 encoding", tc.name, tc.msg)
	}
	return body
}

// TestCodecRoundTrip: decode(encode(m)) is the case's want value — the
// message itself, except where the nil/empty conventions apply.
func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range codecCases() {
		got, err := decodeMessage(encode(t, tc))
		if err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: round trip\n got: %#v\nwant: %#v", tc.name, got, tc.want)
		}
	}
}

// readGolden parses testdata/ddn1_golden.txt: "<case name> <hex>" per
// line, '#' comments. Lines after the "[retired]" marker are the bytes
// of encodings since deleted; they come back in retired.
func readGolden(t testing.TB) (live, retired map[string][]byte) {
	t.Helper()
	raw, err := os.ReadFile("testdata/ddn1_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	live, retired = map[string][]byte{}, map[string][]byte{}
	section := live
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "[retired]" {
			section = retired
			continue
		}
		name, hexBody, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q: want \"<name> <hex>\"", line)
		}
		body, err := hex.DecodeString(hexBody)
		if err != nil {
			t.Fatalf("golden line %q: %v", name, err)
		}
		section[name] = body
	}
	return live, retired
}

// TestCodecGoldenBytes pins the wire format itself. The golden file was
// generated by the encoder of the commit before gob was removed, so
// passing means that change, and every later one, left the bytes of
// every message alone: the encoder still produces exactly them and the
// decoder still accepts them. A new message appends a line (the failure
// prints it); an existing line never changes.
func TestCodecGoldenBytes(t *testing.T) {
	golden, _ := readGolden(t)
	for _, tc := range codecCases() {
		if tc.mapOrder {
			continue
		}
		body := encode(t, tc)
		want, ok := golden[tc.name]
		if !ok {
			t.Errorf("no golden line for this case; the encoder produces:\n%s %x", tc.name, body)
			continue
		}
		delete(golden, tc.name)
		if !bytes.Equal(body, want) {
			t.Errorf("%s: wire bytes changed\n got: %x\nwant: %x", tc.name, body, want)
		}
		got, err := decodeMessage(want)
		if err != nil {
			t.Errorf("%s: decode golden bytes: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: golden bytes decode to\n got: %#v\nwant: %#v", tc.name, got, tc.want)
		}
	}
	for name := range golden {
		t.Errorf("golden line %q matches no codec case", name)
	}
}

// TestCodecRetiredTags: the numbers of deleted encodings stay reserved
// and decode like any tag this build does not know. The golden file's
// retired section keeps the last bytes each deleted message was sent
// as, so those exact frames are pinned as skipped, not misread.
func TestCodecRetiredTags(t *testing.T) {
	for _, tag := range []byte{0, 4, 26, 32} {
		if _, err := decodeMessage([]byte{tag, 1, 2, 3}); err != errUnknownTag {
			t.Errorf("retired tag %d: err = %v, want errUnknownTag", tag, err)
		}
	}
	_, retired := readGolden(t)
	tags := map[byte]bool{}
	for name, body := range retired {
		tags[body[0]] = true
		if _, err := decodeMessage(body); err != errUnknownTag {
			t.Errorf("retired golden line %s (tag %d): err = %v, want errUnknownTag", name, body[0], err)
		}
	}
	for _, tag := range []byte{8, 9, 10, 11, 12, 13, 16, 17, 29, 30, 31} {
		if !tags[tag] {
			t.Errorf("retired tag %d has no golden line", tag)
		}
	}
	for name, prefix := range retiredCountPrefixes() {
		for _, count := range hostileCounts {
			if _, err := decodeMessage(withCount(prefix, count, 0)); err != errUnknownTag {
				t.Errorf("retired %s with count %#x: err = %v, want errUnknownTag", name, count, err)
			}
		}
	}
	// The retired rumor payload sub-tag is inside a known tag, so it is
	// a malformed body.
	if _, err := decodeMessage([]byte{tagRumorMsg, 1, 0, 2, 0}); err == nil || err == errUnknownTag {
		t.Errorf("retired rumor sub-tag 2: err = %v, want a malformed-body error", err)
	}
}

// countPrefixes is, for every list- or map-bearing field of every
// message (and the counts and lengths nested inside tuples and
// strings), a frame body cut off right before that field's count.
func countPrefixes() map[string][]byte {
	tupleHead := []byte{tagReadResp, 0, 1, 0xD7, 0x01, 0, 0, 0} // ReqID; present, magic, version, empty key, seq, writer
	return map[string][]byte{
		"DigestReq.IDs":         {tagDigestReq},
		"DigestResp.Rumors":     {tagDigestResp},
		"VectorPush.Mins":       {tagVectorPush, 0},
		"VectorReply.Mins":      {tagVectorReply, 0},
		"SyncVersions.Versions": {tagSyncVersions, 0, 0},
		"SyncVersions.Coverage": {tagSyncVersions, 0, 0, 0},
		"SyncPull.Keys":         {tagSyncPull},
		"SyncPush.Tuples":       {tagSyncPush},
		"AdoptReq.Tuples":       {tagAdoptReq, 0, 0},
		"SegSyncReq.Digests":    {tagSegSyncReq, 0, 0},
		"SupersedeQuery.Hints":  {tagSupersedeQuery},
		"SupersedeResp.Held":    {tagSupersedeResp},
		"SupersedeResp.Want":    {tagSupersedeResp, 0},
		"SupersedeResp.Newer":   {tagSupersedeResp, 0, 0},
		"string length":         {tagStoreAck},
		"tuple value length":    append(tupleHead[:len(tupleHead):len(tupleHead)], 2), // flags: has value
		"tuple attr count":      append(tupleHead[:len(tupleHead):len(tupleHead)], 0),
		"tuple tag count":       append(tupleHead[:len(tupleHead):len(tupleHead)], 0, 0),
	}
}

// retiredCountPrefixes are countPrefixes under retired tags: the list
// and string counts of the messages no live node sends, as a peer
// running an older build could still frame them. Their tag alone makes
// them unknown, whatever count follows.
func retiredCountPrefixes() map[string][]byte {
	return map[string][]byte{
		"ScanResp.Tuples":      {9, 0},
		"AggReq string length": {10},
		"RecoverResp.Versions": {13, 0},
		"SketchPush.Entries":   {16, 0, 0},
		"SketchReply.Entries":  {17, 0, 0},
		"TManExchange.Entries": {29, 0},
	}
}

// hostileCounts wrap when multiplied by an element size.
var hostileCounts = []uint64{1 << 61, 1 << 63, 1<<64 - 1}

// withCount completes a countPrefixes body: the count, then tail zero
// bytes (which parse as zero-valued trailing fields).
func withCount(prefix []byte, count uint64, tail int) []byte {
	body := binary.AppendUvarint(append([]byte(nil), prefix...), count)
	return append(body, make([]byte, tail)...)
}

// TestDecodeHostileCounts: a count the remaining bytes cannot hold is a
// decode error — never an allocation sized by it. (A VectorPush
// claiming 2^61 floats used to pass a multiplied guard and panic in
// make.) And a count the bytes can hold reserves no more than
// maxCountHint elements ahead of parsing them: a full-size frame whose
// count is honest by the byte rule, but whose first element is garbage,
// used to size a gigabyte of slice (or map) before failing.
func TestDecodeHostileCounts(t *testing.T) {
	for name, f := range map[string]struct {
		prefix  []byte
		minElem int
	}{
		"SyncPull.Keys":         {[]byte{tagSyncPull}, minString},
		"SyncVersions.Versions": {[]byte{tagSyncVersions, 0, 0}, minKeyVersion},
	} {
		body := make([]byte, wire.MaxNodeFrame)
		n := copy(body, f.prefix)
		n += binary.PutUvarint(body[n:], uint64((len(body)-n-binary.MaxVarintLen64)/f.minElem))
		for i := 0; i < binary.MaxVarintLen64; i++ {
			body[n+i] = 0xff // the first element's length prefix overflows
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeMessage(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: full-size frame with a garbage first element decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("%s: decoding allocated %d MiB ahead of the elements, want at most 8", name, got>>20)
		}
	}
	for name, prefix := range countPrefixes() {
		// Control: with a zero count the same body decodes, so the
		// prefix ends exactly at the count and the errors below are
		// about the count.
		if _, err := decodeMessage(withCount(prefix, 0, 64)); err != nil {
			t.Errorf("%s: count 0: %v", name, err)
		}
		for _, count := range hostileCounts {
			for _, tail := range []int{0, 64} {
				if msg, err := decodeMessage(withCount(prefix, count, tail)); err == nil {
					t.Errorf("%s: count %#x, %d bytes after it: decoded to %#v, want an error", name, count, tail, msg)
				}
			}
		}
	}
}

// TestCodecUnknownTag pins the mixed-version rule at the codec level:
// an unassigned tag is errUnknownTag (skip the frame), not a generic
// decode failure (drop the connection).
func TestCodecUnknownTag(t *testing.T) {
	for _, tag := range []byte{tagLimit, 100, 255} {
		_, err := decodeMessage([]byte{tag, 1, 2, 3})
		if err != errUnknownTag {
			t.Errorf("tag %d: err = %v, want errUnknownTag", tag, err)
		}
	}
	if _, err := decodeMessage(nil); err == nil {
		t.Errorf("empty body: want error")
	}
}

// TestCodecTruncation feeds every strict prefix of every valid encoding
// to the decoder: each must fail cleanly (no panic, no success with
// garbage) — except prefixes that are themselves complete encodings is
// impossible here because every truncation removes required bytes.
func TestCodecTruncation(t *testing.T) {
	for _, tc := range codecCases() {
		body := encode(t, tc)
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeMessage(body[:cut]); err == nil {
				t.Errorf("%s: decode of %d/%d-byte prefix succeeded", tc.name, cut, len(body))
			}
		}
	}
}

// FuzzDecodeMessage hammers the frame-body decoder with arbitrary
// bytes: it must never panic, whatever the tag or payload.
func FuzzDecodeMessage(f *testing.F) {
	for _, tc := range codecCases() {
		f.Add(encode(f, tc))
	}
	for _, prefixes := range []map[string][]byte{countPrefixes(), retiredCountPrefixes()} {
		for _, prefix := range prefixes {
			for _, count := range hostileCounts {
				f.Add(withCount(prefix, count, 0))
				f.Add(withCount(prefix, count, 64))
			}
		}
	}
	_, retired := readGolden(f)
	for _, body := range retired {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0xff, 0x00})     // retired tag 0
	f.Add([]byte{26, 7, 0x40, 0x01}) // retired tag 26: a clean SegSyncResp as last encoded
	f.Add([]byte{tagLimit})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeMessage(data) // must not panic
	})
}

// FuzzReadNodeFrame hammers the frame reader: malformed length
// prefixes, truncated frames, oversize claims — errors, never panics,
// and a returned frame must match its length prefix.
func FuzzReadNodeFrame(f *testing.F) {
	frame := func(body []byte) []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := wire.WriteNodeFrame(w, body); err != nil {
			f.Fatalf("WriteNodeFrame: %v", err)
		}
		w.Flush()
		return buf.Bytes()
	}
	f.Add(frame([]byte{tagReadReq, 1, 'k', 7, 3, 8}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversize length claim
	f.Add([]byte{0, 0, 0, 5, 1, 2})       // truncated body
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		buf := make([]byte, 0, 64)
		for {
			body, err := wire.ReadNodeFrame(br, buf)
			if err != nil {
				return
			}
			if len(data) >= 4 && len(body) > len(data) {
				t.Fatalf("frame body %d bytes from %d-byte input", len(body), len(data))
			}
			buf = body[:0]
			_, _ = decodeMessage(body)
		}
	})
}

// FuzzReadNodePreamble checks the connection preamble parser on
// arbitrary input.
func FuzzReadNodePreamble(f *testing.F) {
	good := func(id uint64) []byte {
		var buf bytes.Buffer
		if err := wire.WriteNodePreamble(&buf, id); err != nil {
			f.Fatalf("WriteNodePreamble: %v", err)
		}
		return buf.Bytes()
	}
	f.Add(good(1))
	f.Add(good(1 << 63))
	f.Add([]byte("DDB1junk")) // client magic on the gossip port
	f.Add([]byte("DDN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		_, _ = wire.ReadNodePreamble(br)
	})
}

// TestPreambleRoundTrip pins the preamble format.
func TestPreambleRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 300, 1 << 40, 1<<64 - 1} {
		var buf bytes.Buffer
		if err := wire.WriteNodePreamble(&buf, id); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := wire.ReadNodePreamble(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("read id %d: %v", id, err)
		}
		if got != id {
			t.Fatalf("preamble round trip = %d, want %d", got, id)
		}
	}
}

// envelopeBenchMessages is the serve hot path's mix: a read probe, a
// replica ack and a rumor carrying a write.
func envelopeBenchMessages() []any {
	return []any{
		epidemic.ReadReq{Key: "users/42", ReqID: 77, Origin: 3, TTL: 4},
		epidemic.StoreAck{Key: "users/42", Version: tuple.Version{Seq: 9, Writer: 3}},
		gossip.RumorMsg{Rumor: gossip.Rumor{ID: 9, Hops: 2, Payload: epidemic.WritePayload{Tuple: sampleTuple(), Origin: 1, Entry: 2}}},
	}
}

// BenchmarkEncodeEnvelope pins the steady-state encode path at ~0
// allocs/op — the per-peer writers encode into recycled scratch
// buffers, so a hot fabric must not allocate per envelope. CI gates on
// this benchmark's allocs/op.
func BenchmarkEncodeEnvelope(b *testing.B) {
	msgs := envelopeBenchMessages()
	scratch := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, ok := appendMessage(scratch[:0], msgs[i%len(msgs)])
		if !ok {
			b.Fatal("message has no DDN1 encoding")
		}
		if cap(body) > cap(scratch) {
			scratch = body
		}
	}
}

// decodeSink keeps the compiler from discarding the decoded message.
var decodeSink any

// BenchmarkDecodeEnvelope is the read loop's side of the same three
// messages: one cursor, reused across frames as readLoop reuses its
// per-connection one.
func BenchmarkDecodeEnvelope(b *testing.B) {
	var bodies [][]byte
	for _, msg := range envelopeBenchMessages() {
		body, ok := appendMessage(nil, msg)
		if !ok {
			b.Fatal("message has no DDN1 encoding")
		}
		bodies = append(bodies, body)
	}
	var cur wire.Cursor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := decode(&cur, bodies[i%len(bodies)])
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = msg
	}
}
