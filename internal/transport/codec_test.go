package transport

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"datadroplets/internal/aggregate"
	"datadroplets/internal/core"
	"datadroplets/internal/epidemic"
	"datadroplets/internal/gossip"
	"datadroplets/internal/histogram"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/repair"
	"datadroplets/internal/sizeest"
	"datadroplets/internal/tman"
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

// codecCases is one instance of every message type the DDN1 codec
// carries, in both populated and zero/empty shapes — the differential
// test feeds each through gob and through the binary codec and demands
// identical results, which pins gob's nil-versus-empty conventions.
func codecCases() []any {
	t1, t2 := sampleTuple(), sampleTuple()
	t2.Key, t2.Value, t2.Deleted = "other", nil, true
	return []any{
		gossip.RumorMsg{Rumor: gossip.Rumor{ID: 9, Hops: 2, Payload: epidemic.WritePayload{Tuple: t1, Origin: 1, Entry: 2}}},
		gossip.RumorMsg{Rumor: gossip.Rumor{ID: 10, Hops: 0, Payload: sampleTuple()}},
		gossip.RumorMsg{Rumor: gossip.Rumor{ID: 11}},
		gossip.DigestReq{IDs: []uint64{1, 5, 1 << 60}},
		gossip.DigestReq{},
		gossip.DigestReq{IDs: []uint64{}}, // gob decodes empty as nil; so must we
		gossip.DigestResp{Rumors: []gossip.Rumor{{ID: 1, Hops: 3}, {ID: 2, Payload: sampleTuple()}}},
		gossip.DigestResp{},
		epidemic.WritePayload{Tuple: t1, Origin: 4, Entry: 5},
		epidemic.StoreAck{Key: "k", Version: tuple.Version{Seq: 1, Writer: 9}},
		epidemic.StoreAck{},
		epidemic.ReadReq{Key: "k", ReqID: 77, Origin: 3, TTL: 4},
		epidemic.ReadResp{ReqID: 77, Tuple: t2},
		epidemic.ReadResp{ReqID: 78}, // miss: nil tuple
		epidemic.ScanReq{Attr: "age", Lo: -10.25, Hi: 99, ReqID: 5, Origin: 2, HopsLeft: 7, Seeking: true},
		epidemic.ScanResp{ReqID: 5, Tuples: []*tuple.Tuple{t1, t2}, Done: true},
		epidemic.ScanResp{ReqID: 6},
		epidemic.AggReq{Attr: "age", ReqID: 12},
		epidemic.AggResp{ReqID: 12, Attr: "age", Known: true, Avg: 1.5, Min: -2, Max: 7, Sum: 100, Count: 3, NEstimate: 1000},
		epidemic.RecoverReq{ReqID: 1, Limit: 64},
		epidemic.RecoverResp{ReqID: 1, Versions: map[string]tuple.Version{"a": {Seq: 1, Writer: 2}, "b": {Seq: 9, Writer: 1}}},
		epidemic.RecoverResp{ReqID: 2},
		epidemic.RecoverResp{ReqID: 3, Versions: map[string]tuple.Version{}},
		sizeest.VectorPush{Epoch: 3, Mins: []float64{0.25, 0.5}},
		sizeest.VectorPush{Epoch: 4},
		sizeest.VectorReply{Epoch: 3, Mins: []float64{0.125}},
		histogram.SketchPush{Epoch: 2, K: 32, Entries: []histogram.KMVEntry{{Hash: 5, Value: 1.5}, {Hash: 9, Value: -3}}},
		histogram.SketchPush{Epoch: 2, K: 32},
		histogram.SketchReply{Epoch: 2, K: 16, Entries: []histogram.KMVEntry{{Hash: 1, Value: 2}}},
		&randomwalk.WalkMsg{SetID: 8, Origin: 1, TTL: 6, Query: randomwalk.Query{Point: 1 << 50, Key: "k"}},
		randomwalk.WalkResult{SetID: 8, Sample: randomwalk.Sample{Node: 4, Covers: true, HasKey: true}},
		repair.SyncReq{Arc: node.Arc{Start: 100, Width: 1 << 40}, Digest: 0xdeadbeef},
		repair.SyncVersions{Arc: node.Arc{Start: 1, Width: 2}, Versions: map[string]tuple.Version{"x": {Seq: 3, Writer: 1}}, Coverage: []node.Arc{{Start: 0, Width: 10}, {Start: 50, Width: 5}}},
		repair.SyncVersions{Arc: node.Arc{Start: 1, Width: 2}}, // covers nothing
		repair.SyncPull{Keys: []string{"a", "b"}},
		repair.SyncPull{},
		repair.SyncPush{Tuples: []*tuple.Tuple{t1}},
		repair.AdoptReq{Arc: node.Arc{Start: 7, Width: 8}, Tuples: []*tuple.Tuple{t1, t2}},
		repair.SegSyncReq{Arc: node.Arc{Start: 7, Width: 64}, Digests: []uint64{1, 2, 3, 4}},
		repair.SegSyncResp{Arc: node.Arc{Start: 7, Width: 64}, Clean: true},
		repair.SupersedeQuery{Hints: []repair.KeyVersion{{Key: "k", Version: tuple.Version{Seq: 2, Writer: 8}}}},
		repair.SupersedeQuery{},
		repair.SupersedeResp{Held: []repair.KeyVersion{{Key: "h", Version: tuple.Version{Seq: 1}}}, Want: []string{"w"}, Newer: []*tuple.Tuple{t2}},
		repair.SupersedeResp{},
		tman.Exchange{Attr: "age", Entries: []tman.Descriptor{{ID: 1, Value: 2.5, Age: 3}, {ID: 2, Value: -1, Age: 0}}, Reply: true},
		tman.Exchange{Attr: "age"},
		aggregate.Mass{Attr: "age", Epoch: 5, Sum: 10, Weight: 0.5, Min: -1, Max: 99, HasExt: true},
		core.WriteCmd{Tuple: t1, ReplyTo: 6},
		sampleTuple(),
	}
}

// gobRoundTrip runs msg through the gob fallback path the old transport
// used for everything — the reference behaviour.
func gobRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&gobBox{M: msg}); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var box gobBox
	if err := gob.NewDecoder(&buf).Decode(&box); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return box.M
}

// TestCodecGobEquivalence is the differential test: every registered
// message type must decode from the binary codec to exactly what a gob
// round trip yields, including gob's empty-slice→nil convention.
func TestCodecGobEquivalence(t *testing.T) {
	RegisterMessages()
	for _, msg := range codecCases() {
		body, ok := appendMessage(nil, msg)
		if !ok {
			t.Errorf("%T: no binary encoding (unexpected gob fallback)", msg)
			continue
		}
		got, err := decodeMessage(body)
		if err != nil {
			t.Errorf("%T: decode: %v", msg, err)
			continue
		}
		want := gobRoundTrip(t, msg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: binary round trip diverges from gob\n binary: %#v\n    gob: %#v", msg, got, want)
		}
	}
}

// TestCodecGobFallback proves unlisted payload types still travel via
// the tag-0 escape hatch.
func TestCodecGobFallback(t *testing.T) {
	RegisterMessages()
	msg := "plain string message" // what transport_test's pingMachine sends
	if _, ok := appendMessage(nil, msg); ok {
		t.Fatalf("string unexpectedly has a binary encoding")
	}
	body, err := encodeGobFrame(nil, msg)
	if err != nil {
		t.Fatalf("encodeGobFrame: %v", err)
	}
	if body[0] != tagGob {
		t.Fatalf("fallback frame tag = %d, want %d", body[0], tagGob)
	}
	got, err := decodeMessage(body)
	if err != nil {
		t.Fatalf("decode fallback: %v", err)
	}
	if got != msg {
		t.Fatalf("fallback round trip = %#v, want %#v", got, msg)
	}
	// Rumors with exotic payloads refuse binary encoding so the whole
	// envelope falls back.
	if _, ok := appendMessage(nil, gossip.RumorMsg{Rumor: gossip.Rumor{ID: 1, Payload: "exotic"}}); ok {
		t.Fatalf("rumor with string payload unexpectedly encoded binary")
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
	RegisterMessages()
	for _, msg := range codecCases() {
		body, ok := appendMessage(nil, msg)
		if !ok {
			continue
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeMessage(body[:cut]); err == nil {
				t.Errorf("%T: decode of %d/%d-byte prefix succeeded", msg, cut, len(body))
			}
		}
	}
}

// FuzzDecodeMessage hammers the frame-body decoder with arbitrary
// bytes: it must never panic, whatever the tag or payload.
func FuzzDecodeMessage(f *testing.F) {
	RegisterMessages()
	for _, msg := range codecCases() {
		if body, ok := appendMessage(nil, msg); ok {
			f.Add(body)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{tagGob, 0xff, 0x00})
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

// BenchmarkEncodeEnvelope pins the steady-state encode path at ~0
// allocs/op — the per-peer writers encode into recycled scratch
// buffers, so a hot fabric must not allocate per envelope. CI gates on
// this benchmark's allocs/op.
func BenchmarkEncodeEnvelope(b *testing.B) {
	msgs := []any{
		epidemic.ReadReq{Key: "users/42", ReqID: 77, Origin: 3, TTL: 4},
		epidemic.StoreAck{Key: "users/42", Version: tuple.Version{Seq: 9, Writer: 3}},
		gossip.RumorMsg{Rumor: gossip.Rumor{ID: 9, Hops: 2, Payload: epidemic.WritePayload{Tuple: sampleTuple(), Origin: 1, Entry: 2}}},
	}
	scratch := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, ok := appendMessage(scratch[:0], msgs[i%len(msgs)])
		if !ok {
			b.Fatal("fallback hit on a registered type")
		}
		if cap(body) > cap(scratch) {
			scratch = body
		}
	}
}
