package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"datadroplets/internal/aggregate"
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

// The DDN1 message codec — the fabric's only wire format, and the only
// file that knows it. Every protocol message is framed as one tag byte
// followed by a hand-written binary body built from internal/wire's
// primitives (internal/tuple's codec conventions: uvarint lengths,
// zig-zag signed ints, little-endian float bits). Encoding appends into
// the per-peer writer's recycled scratch buffer and is allocation-free
// at steady state (BenchmarkEncodeEnvelope pins it); decoding runs
// through one sticky-error cursor per connection.
//
// Rules, normative in docs/PROTOCOL.md §Inter-node framing:
//
//   - Tags are append-only. A tag, once assigned, never changes meaning
//     and is never reused; retired tags (0, 4, 32) stay reserved.
//   - A decoder that meets a tag it does not know — unassigned or
//     retired — skips that frame (the length prefix alone delimits it)
//     and keeps the connection: new message types degrade to message
//     loss on old nodes, which the epidemic protocols absorb by design.
//   - A malformed body under a known tag, including a list count the
//     remaining bytes cannot hold, drops the connection.
//   - An empty list decodes as nil; the version map alone keeps nil and
//     empty distinct (see appendVersionMap).
//
// The message set is the set the protocol machines send. A message or
// rumor payload outside it has no encoding: appendMessage reports
// false and the peer writer logs and drops it.

// Message tags. Append-only: add new tags at the end, never renumber.
// Tag 0 (the gob frame of the first DDN1 builds), tag 4 (a top-level
// epidemic.WritePayload) and tag 32 (a bare *tuple.Tuple) are retired.
const (
	tagRumorMsg       byte = 1
	tagDigestReq      byte = 2
	tagDigestResp     byte = 3
	tagStoreAck       byte = 5
	tagReadReq        byte = 6
	tagReadResp       byte = 7
	tagScanReq        byte = 8
	tagScanResp       byte = 9
	tagAggReq         byte = 10
	tagAggResp        byte = 11
	tagRecoverReq     byte = 12
	tagRecoverResp    byte = 13
	tagVectorPush     byte = 14
	tagVectorReply    byte = 15
	tagSketchPush     byte = 16
	tagSketchReply    byte = 17
	tagWalkMsg        byte = 18
	tagWalkResult     byte = 19
	tagSyncReq        byte = 20
	tagSyncVersions   byte = 21
	tagSyncPull       byte = 22
	tagSyncPush       byte = 23
	tagAdoptReq       byte = 24
	tagSegSyncReq     byte = 25
	tagSegSyncResp    byte = 26
	tagSupersedeQuery byte = 27
	tagSupersedeResp  byte = 28
	tagTManExchange   byte = 29
	tagAggMass        byte = 30
	tagWriteCmd       byte = 31

	// tagLimit is the first unassigned tag.
	tagLimit byte = 33
)

// Rumor payload sub-tags (gossip.Rumor.Payload is `any`; the live
// fabric ships writes or nothing). Sub-tag 2 (a bare *tuple.Tuple) is
// retired.
const (
	payloadNil          byte = 0
	payloadWritePayload byte = 1
)

// Every list element occupies at least this many body bytes; the list
// reader uses them to refuse counts the rest of the frame cannot hold.
const (
	minVarint     = 1
	minString     = 1  // length prefix
	minTuplePtr   = 1  // presence byte
	minArc        = 2  // start, width
	minKeyVersion = 3  // key length, seq, writer
	minRumor      = 3  // id, hops, payload sub-tag
	minFloat      = 8  // fixed-width bits
	minKMVEntry   = 9  // hash, value bits
	minDescriptor = 10 // id, value bits, age
)

// errUnknownTag marks a frame whose tag this build does not know. The
// read loop skips the frame and counts it; it is not a connection error.
var errUnknownTag = errors.New("transport: unknown message tag")

// ---- encoding -------------------------------------------------------------

// appendMessage appends tag+body for msg to dst. It reports false when
// msg, or a rumor payload nested in it, is outside the protocol's
// message set; dst's contents are then unspecified.
func appendMessage(dst []byte, msg any) ([]byte, bool) {
	switch m := msg.(type) {
	case gossip.RumorMsg:
		return appendRumor(append(dst, tagRumorMsg), m.Rumor)
	case gossip.DigestReq:
		dst = append(dst, tagDigestReq)
		dst = appendSlice(dst, m.IDs, binary.AppendUvarint)
	case gossip.DigestResp:
		dst = append(dst, tagDigestResp)
		dst = binary.AppendUvarint(dst, uint64(len(m.Rumors)))
		for _, r := range m.Rumors {
			var ok bool
			if dst, ok = appendRumor(dst, r); !ok {
				return dst, false
			}
		}
	case epidemic.StoreAck:
		dst = append(dst, tagStoreAck)
		dst = wire.AppendString(dst, m.Key)
		dst = appendVersion(dst, m.Version)
	case epidemic.ReadReq:
		dst = append(dst, tagReadReq)
		dst = wire.AppendString(dst, m.Key)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, uint64(m.Origin))
		dst = wire.AppendVarint(dst, int64(m.TTL))
	case epidemic.ReadResp:
		dst = append(dst, tagReadResp)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendTuplePtr(dst, m.Tuple)
	case epidemic.ScanReq:
		dst = append(dst, tagScanReq)
		dst = wire.AppendString(dst, m.Attr)
		dst = wire.AppendF64(dst, m.Lo)
		dst = wire.AppendF64(dst, m.Hi)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = binary.AppendUvarint(dst, uint64(m.Origin))
		dst = wire.AppendVarint(dst, int64(m.HopsLeft))
		dst = appendBool(dst, m.Seeking)
	case epidemic.ScanResp:
		dst = append(dst, tagScanResp)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendSlice(dst, m.Tuples, appendTuplePtr)
		dst = appendBool(dst, m.Done)
	case epidemic.AggReq:
		dst = append(dst, tagAggReq)
		dst = wire.AppendString(dst, m.Attr)
		dst = binary.AppendUvarint(dst, m.ReqID)
	case epidemic.AggResp:
		dst = append(dst, tagAggResp)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = wire.AppendString(dst, m.Attr)
		dst = appendBool(dst, m.Known)
		dst = wire.AppendF64(dst, m.Avg)
		dst = wire.AppendF64(dst, m.Min)
		dst = wire.AppendF64(dst, m.Max)
		dst = wire.AppendF64(dst, m.Sum)
		dst = wire.AppendF64(dst, m.Count)
		dst = wire.AppendF64(dst, m.NEstimate)
	case epidemic.RecoverReq:
		dst = append(dst, tagRecoverReq)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = wire.AppendVarint(dst, int64(m.Limit))
	case epidemic.RecoverResp:
		dst = append(dst, tagRecoverResp)
		dst = binary.AppendUvarint(dst, m.ReqID)
		dst = appendVersionMap(dst, m.Versions)
	case sizeest.VectorPush:
		dst = append(dst, tagVectorPush)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = appendSlice(dst, m.Mins, wire.AppendF64)
	case sizeest.VectorReply:
		dst = append(dst, tagVectorReply)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = appendSlice(dst, m.Mins, wire.AppendF64)
	case histogram.SketchPush:
		dst = append(dst, tagSketchPush)
		dst = appendSketch(dst, m.Epoch, m.K, m.Entries)
	case histogram.SketchReply:
		dst = append(dst, tagSketchReply)
		dst = appendSketch(dst, m.Epoch, m.K, m.Entries)
	case *randomwalk.WalkMsg:
		dst = append(dst, tagWalkMsg)
		dst = binary.AppendUvarint(dst, m.SetID)
		dst = binary.AppendUvarint(dst, uint64(m.Origin))
		dst = wire.AppendVarint(dst, int64(m.TTL))
		dst = binary.AppendUvarint(dst, uint64(m.Query.Point))
		dst = wire.AppendString(dst, m.Query.Key)
	case randomwalk.WalkResult:
		dst = append(dst, tagWalkResult)
		dst = binary.AppendUvarint(dst, m.SetID)
		dst = binary.AppendUvarint(dst, uint64(m.Sample.Node))
		dst = appendBool(dst, m.Sample.Covers)
		dst = appendBool(dst, m.Sample.HasKey)
	case repair.SyncReq:
		dst = append(dst, tagSyncReq)
		dst = appendArc(dst, m.Arc)
		dst = binary.AppendUvarint(dst, m.Digest)
	case repair.SyncVersions:
		dst = append(dst, tagSyncVersions)
		dst = appendArc(dst, m.Arc)
		dst = appendVersionMap(dst, m.Versions)
		dst = appendSlice(dst, m.Coverage, appendArc)
	case repair.SyncPull:
		dst = append(dst, tagSyncPull)
		dst = appendSlice(dst, m.Keys, wire.AppendString)
	case repair.SyncPush:
		dst = append(dst, tagSyncPush)
		dst = appendSlice(dst, m.Tuples, appendTuplePtr)
	case repair.AdoptReq:
		dst = append(dst, tagAdoptReq)
		dst = appendArc(dst, m.Arc)
		dst = appendSlice(dst, m.Tuples, appendTuplePtr)
	case repair.SegSyncReq:
		dst = append(dst, tagSegSyncReq)
		dst = appendArc(dst, m.Arc)
		dst = appendSlice(dst, m.Digests, binary.AppendUvarint)
	case repair.SegSyncResp:
		dst = append(dst, tagSegSyncResp)
		dst = appendArc(dst, m.Arc)
		dst = appendBool(dst, m.Clean)
	case repair.SupersedeQuery:
		dst = append(dst, tagSupersedeQuery)
		dst = appendSlice(dst, m.Hints, appendKeyVersion)
	case repair.SupersedeResp:
		dst = append(dst, tagSupersedeResp)
		dst = appendSlice(dst, m.Held, appendKeyVersion)
		dst = appendSlice(dst, m.Want, wire.AppendString)
		dst = appendSlice(dst, m.Newer, appendTuplePtr)
	case tman.Exchange:
		dst = append(dst, tagTManExchange)
		dst = wire.AppendString(dst, m.Attr)
		dst = appendSlice(dst, m.Entries, appendDescriptor)
		dst = appendBool(dst, m.Reply)
	case aggregate.Mass:
		dst = append(dst, tagAggMass)
		dst = wire.AppendString(dst, m.Attr)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = wire.AppendF64(dst, m.Sum)
		dst = wire.AppendF64(dst, m.Weight)
		dst = wire.AppendF64(dst, m.Min)
		dst = wire.AppendF64(dst, m.Max)
		dst = appendBool(dst, m.HasExt)
	case epidemic.WriteCmd:
		dst = append(dst, tagWriteCmd)
		dst = appendTuplePtr(dst, m.Tuple)
		dst = binary.AppendUvarint(dst, uint64(m.ReplyTo))
	default:
		return dst, false
	}
	return dst, true
}

// appendSlice writes a count, then each element through elem.
func appendSlice[T any](dst []byte, vs []T, elem func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = elem(dst, v)
	}
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendVersion(dst []byte, v tuple.Version) []byte {
	dst = binary.AppendUvarint(dst, v.Seq)
	return binary.AppendUvarint(dst, uint64(v.Writer))
}

func appendArc(dst []byte, a node.Arc) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Start))
	return binary.AppendUvarint(dst, a.Width)
}

func appendKeyVersion(dst []byte, kv repair.KeyVersion) []byte {
	dst = wire.AppendString(dst, kv.Key)
	return appendVersion(dst, kv.Version)
}

func appendKMVEntry(dst []byte, e histogram.KMVEntry) []byte {
	dst = binary.AppendUvarint(dst, e.Hash)
	return wire.AppendF64(dst, e.Value)
}

func appendDescriptor(dst []byte, d tman.Descriptor) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.ID))
	dst = wire.AppendF64(dst, d.Value)
	return wire.AppendVarint(dst, int64(d.Age))
}

func appendSketch(dst []byte, epoch uint64, k int, entries []histogram.KMVEntry) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = wire.AppendVarint(dst, int64(k))
	return appendSlice(dst, entries, appendKMVEntry)
}

// appendVersionMap writes map entries in whatever order the map yields
// them — iteration order is irrelevant to the receiver (it rebuilds a
// map) and sorting would cost allocations on a hot repair path. The
// count is biased by one, 0 meaning nil, so an empty map arrives empty
// rather than nil — the one place the format tells the two apart.
func appendVersionMap(dst []byte, m map[string]tuple.Version) []byte {
	if m == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m))+1)
	for k, v := range m {
		dst = wire.AppendString(dst, k)
		dst = appendVersion(dst, v)
	}
	return dst
}

// appendTuplePtr writes a presence byte then the tuple codec's encoding
// (ReadResp misses carry nil).
func appendTuplePtr(dst []byte, t *tuple.Tuple) []byte {
	if t == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return tuple.AppendMarshal(dst, t)
}

// appendRumor encodes one rumor; a payload outside the known set
// reports !ok.
func appendRumor(dst []byte, rum gossip.Rumor) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, rum.ID)
	dst = wire.AppendVarint(dst, int64(rum.Hops))
	switch p := rum.Payload.(type) {
	case nil:
		dst = append(dst, payloadNil)
	case epidemic.WritePayload:
		dst = append(dst, payloadWritePayload)
		dst = appendTuplePtr(dst, p.Tuple)
		dst = binary.AppendUvarint(dst, uint64(p.Origin))
		dst = binary.AppendUvarint(dst, uint64(p.Entry))
	default:
		return dst, false
	}
	return dst, true
}

// ---- decoding -------------------------------------------------------------

// cursor decodes frame bodies: a wire.BodyReader whose first failure
// sticks. After it every accessor returns its zero value without
// touching the body, so a message decoder is straight-line code and
// the error is checked once per frame, in decode. readLoop keeps one
// cursor per connection and decode resets it per frame — the element
// readers are called through function values, so a cursor declared per
// frame would be a heap allocation per message.
type cursor struct {
	r   wire.BodyReader
	err error
}

// decode parses one frame body (tag + payload). An unassigned or
// retired tag is errUnknownTag, which the read loop treats as "skip
// the frame, keep the connection"; any other error is a malformed body.
func (c *cursor) decode(body []byte) (any, error) {
	if len(body) == 0 {
		return nil, wire.ErrTruncated
	}
	c.r, c.err = wire.NewBodyReader(body[1:]), nil
	msg := c.message(body[0])
	if c.err != nil {
		return nil, c.err
	}
	return msg, nil
}

// message decodes the body of one tagged message. Go evaluates the
// calls in a composite literal in source order, so each literal below
// lists its fields in wire order — which is not always declaration
// order — and is the body's layout.
func (c *cursor) message(tag byte) any {
	switch tag {
	case tagRumorMsg:
		return gossip.RumorMsg{Rumor: c.rumor()}
	case tagDigestReq:
		return gossip.DigestReq{IDs: list(c, minVarint, (*cursor).uvarint)}
	case tagDigestResp:
		return gossip.DigestResp{Rumors: list(c, minRumor, (*cursor).rumor)}
	case tagStoreAck:
		return epidemic.StoreAck{Key: c.str(), Version: c.version()}
	case tagReadReq:
		return epidemic.ReadReq{Key: c.str(), ReqID: c.uvarint(), Origin: c.id(), TTL: c.int()}
	case tagReadResp:
		return epidemic.ReadResp{ReqID: c.uvarint(), Tuple: c.tuplePtr()}
	case tagScanReq:
		return epidemic.ScanReq{Attr: c.str(), Lo: c.f64(), Hi: c.f64(), ReqID: c.uvarint(),
			Origin: c.id(), HopsLeft: c.int(), Seeking: c.bool()}
	case tagScanResp:
		return epidemic.ScanResp{ReqID: c.uvarint(), Tuples: list(c, minTuplePtr, (*cursor).tuplePtr), Done: c.bool()}
	case tagAggReq:
		return epidemic.AggReq{Attr: c.str(), ReqID: c.uvarint()}
	case tagAggResp:
		return epidemic.AggResp{ReqID: c.uvarint(), Attr: c.str(), Known: c.bool(), Avg: c.f64(),
			Min: c.f64(), Max: c.f64(), Sum: c.f64(), Count: c.f64(), NEstimate: c.f64()}
	case tagRecoverReq:
		return epidemic.RecoverReq{ReqID: c.uvarint(), Limit: c.int()}
	case tagRecoverResp:
		return epidemic.RecoverResp{ReqID: c.uvarint(), Versions: c.versionMap()}
	case tagVectorPush:
		return sizeest.VectorPush{Epoch: c.uvarint(), Mins: list(c, minFloat, (*cursor).f64)}
	case tagVectorReply:
		return sizeest.VectorReply{Epoch: c.uvarint(), Mins: list(c, minFloat, (*cursor).f64)}
	case tagSketchPush:
		return histogram.SketchPush{Epoch: c.uvarint(), K: c.int(), Entries: list(c, minKMVEntry, (*cursor).kmvEntry)}
	case tagSketchReply:
		return histogram.SketchReply{Epoch: c.uvarint(), K: c.int(), Entries: list(c, minKMVEntry, (*cursor).kmvEntry)}
	case tagWalkMsg:
		return &randomwalk.WalkMsg{SetID: c.uvarint(), Origin: c.id(), TTL: c.int(),
			Query: randomwalk.Query{Point: node.Point(c.uvarint()), Key: c.str()}}
	case tagWalkResult:
		return randomwalk.WalkResult{SetID: c.uvarint(),
			Sample: randomwalk.Sample{Node: c.id(), Covers: c.bool(), HasKey: c.bool()}}
	case tagSyncReq:
		return repair.SyncReq{Arc: c.arc(), Digest: c.uvarint()}
	case tagSyncVersions:
		return repair.SyncVersions{Arc: c.arc(), Versions: c.versionMap(), Coverage: list(c, minArc, (*cursor).arc)}
	case tagSyncPull:
		return repair.SyncPull{Keys: list(c, minString, (*cursor).str)}
	case tagSyncPush:
		return repair.SyncPush{Tuples: list(c, minTuplePtr, (*cursor).tuplePtr)}
	case tagAdoptReq:
		return repair.AdoptReq{Arc: c.arc(), Tuples: list(c, minTuplePtr, (*cursor).tuplePtr)}
	case tagSegSyncReq:
		return repair.SegSyncReq{Arc: c.arc(), Digests: list(c, minVarint, (*cursor).uvarint)}
	case tagSegSyncResp:
		return repair.SegSyncResp{Arc: c.arc(), Clean: c.bool()}
	case tagSupersedeQuery:
		return repair.SupersedeQuery{Hints: list(c, minKeyVersion, (*cursor).keyVersion)}
	case tagSupersedeResp:
		return repair.SupersedeResp{Held: list(c, minKeyVersion, (*cursor).keyVersion),
			Want: list(c, minString, (*cursor).str), Newer: list(c, minTuplePtr, (*cursor).tuplePtr)}
	case tagTManExchange:
		return tman.Exchange{Attr: c.str(), Entries: list(c, minDescriptor, (*cursor).descriptor), Reply: c.bool()}
	case tagAggMass:
		return aggregate.Mass{Attr: c.str(), Epoch: c.uvarint(), Sum: c.f64(), Weight: c.f64(),
			Min: c.f64(), Max: c.f64(), HasExt: c.bool()}
	case tagWriteCmd:
		return epidemic.WriteCmd{Tuple: c.tuplePtr(), ReplyTo: c.id()}
	default:
		c.err = errUnknownTag
		return nil
	}
}

// maxCountHint caps the capacity a count from the wire may reserve up
// front. fits bounds a count by the bytes left in the frame, not by the
// memory its elements take once decoded: 64 MiB of one-byte elements is
// an honest count of 2^26 that would size a gigabyte of slice before a
// single element is read. Past the hint, growth is paid for by elements
// that actually parse.
const maxCountHint = 64 << 10

// list reads a count and then that many elements through elem. It is
// the only place a count from the wire sizes a slice, and it sizes it
// only after fits has accepted the count, and by at most maxCountHint.
// An empty list decodes as nil.
func list[T any](c *cursor, minElemBytes int, elem func(*cursor) T) []T {
	n := c.uvarint()
	if n == 0 || !c.fits(n, minElemBytes) {
		return nil
	}
	out := make([]T, 0, min(n, maxCountHint))
	for ; n > 0 && c.err == nil; n-- {
		out = append(out, elem(c))
	}
	return out
}

// fits reports whether n more elements of at least minElemBytes each
// can be in the body, and fails the cursor when they cannot: such a
// count is a malformed frame however its elements would parse. The
// test divides because n is hostile — n*minElemBytes wraps.
func (c *cursor) fits(n uint64, minElemBytes int) bool {
	if c.err == nil && n > uint64(c.r.Len()/minElemBytes) {
		c.err = wire.ErrTruncated
	}
	return c.err == nil
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	var b byte
	b, c.err = c.r.Byte()
	return b
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	var v uint64
	v, c.err = c.r.Uvarint()
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	var v int64
	v, c.err = c.r.Varint()
	return v
}

func (c *cursor) f64() float64 {
	if c.err != nil {
		return 0
	}
	var v float64
	v, c.err = c.r.F64()
	return v
}

// str reads a key-sized string (keys, attribute names).
func (c *cursor) str() string {
	if c.err != nil {
		return ""
	}
	var s string
	s, c.err = c.r.String(tuple.MaxKeyLen)
	return s
}

func (c *cursor) bool() bool  { return c.byte() != 0 }
func (c *cursor) int() int    { return int(c.varint()) }
func (c *cursor) id() node.ID { return node.ID(c.uvarint()) }

func (c *cursor) version() tuple.Version {
	return tuple.Version{Seq: c.uvarint(), Writer: c.id()}
}

func (c *cursor) arc() node.Arc {
	return node.Arc{Start: node.Point(c.uvarint()), Width: c.uvarint()}
}

func (c *cursor) keyVersion() repair.KeyVersion {
	return repair.KeyVersion{Key: c.str(), Version: c.version()}
}

func (c *cursor) kmvEntry() histogram.KMVEntry {
	return histogram.KMVEntry{Hash: c.uvarint(), Value: c.f64()}
}

func (c *cursor) descriptor() tman.Descriptor {
	return tman.Descriptor{ID: c.id(), Value: c.f64(), Age: c.int()}
}

// versionMap is the one count-sized allocation outside list: the count
// is biased by one (see appendVersionMap) and sizes a map, under the
// same maxCountHint.
func (c *cursor) versionMap() map[string]tuple.Version {
	biased := c.uvarint()
	if biased == 0 || !c.fits(biased-1, minKeyVersion) {
		return nil
	}
	out := make(map[string]tuple.Version, min(biased-1, maxCountHint))
	for n := biased - 1; n > 0 && c.err == nil; n-- {
		key := c.str()
		out[key] = c.version()
	}
	return out
}

// tuplePtr reads a presence byte and, when set, one tuple in the tuple
// codec's own encoding.
func (c *cursor) tuplePtr() *tuple.Tuple {
	if c.byte() == 0 { // absent, or the cursor has already failed
		return nil
	}
	rest, err := c.r.Bytes(c.r.Len())
	if err != nil {
		c.err = err
		return nil
	}
	t, consumed, err := tuple.Unmarshal(rest)
	if err != nil {
		c.err = err
		return nil
	}
	// tuple.Unmarshal reports its length: rewind the unconsumed tail.
	c.err = c.r.Unread(len(rest) - consumed)
	return t
}

func (c *cursor) rumor() gossip.Rumor {
	return gossip.Rumor{ID: c.uvarint(), Hops: c.int(), Payload: c.payload()}
}

// payload reads a rumor's sub-tagged payload.
func (c *cursor) payload() any {
	switch sub := c.byte(); sub {
	case payloadNil:
		return nil
	case payloadWritePayload:
		return epidemic.WritePayload{Tuple: c.tuplePtr(), Origin: c.id(), Entry: c.id()}
	default:
		c.err = fmt.Errorf("transport: unknown rumor payload sub-tag %d", sub)
		return nil
	}
}
