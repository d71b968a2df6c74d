package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"datadroplets/internal/epidemic"
	"datadroplets/internal/gossip"
	"datadroplets/internal/node"
	"datadroplets/internal/randomwalk"
	"datadroplets/internal/repair"
	"datadroplets/internal/sizeest"
	"datadroplets/internal/tuple"
	"datadroplets/internal/wire"
)

// The DDN1 message codec — the fabric's only wire format, and the only
// file that knows it. Every protocol message is framed as one tag byte
// followed by a hand-written binary body built from internal/wire's
// primitives (uvarint lengths, zig-zag signed ints, little-endian float
// bits); tuples inside it are internal/tuple's encoding. Encoding
// appends into the per-peer writer's recycled scratch buffer and is
// allocation-free at steady state (BenchmarkEncodeEnvelope pins it);
// decoding runs on one wire.Cursor per connection, tuples included.
//
// Rules, normative in docs/PROTOCOL.md §Inter-node framing:
//
//   - Tags are append-only. A tag, once assigned, never changes meaning
//     and is never reused; retired tags stay reserved.
//   - A decoder that meets a tag it does not know — unassigned or
//     retired — skips that frame (the length prefix alone delimits it)
//     and keeps the connection: new message types degrade to message
//     loss on old nodes, which the epidemic protocols absorb by design.
//   - A malformed body under a known tag, including a list count the
//     remaining bytes cannot hold, drops the connection.
//   - An empty list decodes as nil; the version map alone keeps nil and
//     empty distinct (see appendVersionMap).
//
// The message set is the set a live node sends: the persistent layer's
// dissemination, size estimation, random walks and range repair, plus
// the read probes, replies and storage acks of the soft layer above it.
// Scans, aggregates, soft-state recovery, distribution sketches and the
// ordered overlay run in the simulator only, and their messages have no
// encoding. A message or rumor payload outside the set has no encoding:
// appendMessage reports false and the peer writer logs and drops it.

// Message tags. Append-only: add new tags at the end, never renumber.
// Retired, and reserved: tag 0 (the gob frame of the first DDN1
// builds), tag 4 (a top-level epidemic.WritePayload), tag 26 (the
// clean/dirty verdict a segmented range sync once returned), tag 32 (a
// bare *tuple.Tuple), and the messages no live node sends — tags 8–13
// (ScanReq, ScanResp, AggReq, AggResp, RecoverReq, RecoverResp), 16–17
// (SketchPush, SketchReply), 29 (tman.Exchange), 30 (aggregate.Mass)
// and 31 (WriteCmd, which the server only ever addresses to itself).
const (
	tagRumorMsg       byte = 1
	tagDigestReq      byte = 2
	tagDigestResp     byte = 3
	tagStoreAck       byte = 5
	tagReadReq        byte = 6
	tagReadResp       byte = 7
	tagVectorPush     byte = 14
	tagVectorReply    byte = 15
	tagWalkMsg        byte = 18
	tagWalkResult     byte = 19
	tagSyncReq        byte = 20
	tagSyncVersions   byte = 21
	tagSyncPull       byte = 22
	tagSyncPush       byte = 23
	tagAdoptReq       byte = 24
	tagSegSyncReq     byte = 25
	tagSupersedeQuery byte = 27
	tagSupersedeResp  byte = 28

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
	minString     = 1 // length prefix
	minTuplePtr   = 1 // presence byte
	minArc        = 2 // start, width
	minKeyVersion = 3 // key length, seq, writer
	minRumor      = 3 // id, hops, payload sub-tag
	minFloat      = 8 // fixed-width bits
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
	case sizeest.VectorPush:
		dst = append(dst, tagVectorPush)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = appendSlice(dst, m.Mins, wire.AppendF64)
	case sizeest.VectorReply:
		dst = append(dst, tagVectorReply)
		dst = binary.AppendUvarint(dst, m.Epoch)
		dst = appendSlice(dst, m.Mins, wire.AppendF64)
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
	case repair.SupersedeQuery:
		dst = append(dst, tagSupersedeQuery)
		dst = appendSlice(dst, m.Hints, appendKeyVersion)
	case repair.SupersedeResp:
		dst = append(dst, tagSupersedeResp)
		dst = appendSlice(dst, m.Held, appendKeyVersion)
		dst = appendSlice(dst, m.Want, wire.AppendString)
		dst = appendSlice(dst, m.Newer, appendTuplePtr)
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

// decode parses one frame body (tag + payload) on c, which readLoop
// keeps one of per connection: the element readers below are called
// through function values, so a cursor declared per frame would be a
// heap allocation per message. An unassigned or retired tag is
// errUnknownTag, which the read loop treats as "skip the frame, keep
// the connection"; any other error is a malformed body.
func decode(c *wire.Cursor, body []byte) (any, error) {
	if len(body) == 0 {
		return nil, wire.ErrTruncated
	}
	c.Reset(body[1:])
	msg := message(c, body[0])
	if err := c.Err(); err != nil {
		return nil, err
	}
	return msg, nil
}

// message decodes the body of one tagged message. Go evaluates the
// calls in a composite literal in source order, so each literal below
// lists its fields in wire order — which is not always declaration
// order — and is the body's layout.
func message(c *wire.Cursor, tag byte) any {
	switch tag {
	case tagRumorMsg:
		return gossip.RumorMsg{Rumor: rumor(c)}
	case tagDigestReq:
		return gossip.DigestReq{IDs: list(c, minVarint, (*wire.Cursor).Uvarint)}
	case tagDigestResp:
		return gossip.DigestResp{Rumors: list(c, minRumor, rumor)}
	case tagStoreAck:
		return epidemic.StoreAck{Key: c.Str(), Version: version(c)}
	case tagReadReq:
		return epidemic.ReadReq{Key: c.Str(), ReqID: c.Uvarint(), Origin: id(c), TTL: c.Int()}
	case tagReadResp:
		return epidemic.ReadResp{ReqID: c.Uvarint(), Tuple: tuplePtr(c)}
	case tagVectorPush:
		return sizeest.VectorPush{Epoch: c.Uvarint(), Mins: list(c, minFloat, (*wire.Cursor).F64)}
	case tagVectorReply:
		return sizeest.VectorReply{Epoch: c.Uvarint(), Mins: list(c, minFloat, (*wire.Cursor).F64)}
	case tagWalkMsg:
		return &randomwalk.WalkMsg{SetID: c.Uvarint(), Origin: id(c), TTL: c.Int(),
			Query: randomwalk.Query{Point: node.Point(c.Uvarint()), Key: c.Str()}}
	case tagWalkResult:
		return randomwalk.WalkResult{SetID: c.Uvarint(),
			Sample: randomwalk.Sample{Node: id(c), Covers: c.Bool(), HasKey: c.Bool()}}
	case tagSyncReq:
		return repair.SyncReq{Arc: arc(c), Digest: c.Uvarint()}
	case tagSyncVersions:
		return repair.SyncVersions{Arc: arc(c), Versions: versionMap(c), Coverage: list(c, minArc, arc)}
	case tagSyncPull:
		return repair.SyncPull{Keys: list(c, minString, (*wire.Cursor).Str)}
	case tagSyncPush:
		return repair.SyncPush{Tuples: list(c, minTuplePtr, tuplePtr)}
	case tagAdoptReq:
		return repair.AdoptReq{Arc: arc(c), Tuples: list(c, minTuplePtr, tuplePtr)}
	case tagSegSyncReq:
		return repair.SegSyncReq{Arc: arc(c), Digests: list(c, minVarint, (*wire.Cursor).Uvarint)}
	case tagSupersedeQuery:
		return repair.SupersedeQuery{Hints: list(c, minKeyVersion, keyVersion)}
	case tagSupersedeResp:
		return repair.SupersedeResp{Held: list(c, minKeyVersion, keyVersion),
			Want: list(c, minString, (*wire.Cursor).Str), Newer: list(c, minTuplePtr, tuplePtr)}
	default:
		c.Fail(errUnknownTag)
		return nil
	}
}

// list reads a count and then that many elements through elem. It is
// the only place a count from the wire sizes a slice, and it sizes it
// only after Fits has accepted the count, and by at most
// wire.MaxCountHint. An empty list decodes as nil.
func list[T any](c *wire.Cursor, minElemBytes int, elem func(*wire.Cursor) T) []T {
	n := c.Uvarint()
	if n == 0 || !c.Fits(n, minElemBytes) {
		return nil
	}
	out := make([]T, 0, min(n, wire.MaxCountHint))
	for ; n > 0 && c.Err() == nil; n-- {
		out = append(out, elem(c))
	}
	return out
}

func id(c *wire.Cursor) node.ID { return node.ID(c.Uvarint()) }

func version(c *wire.Cursor) tuple.Version {
	return tuple.Version{Seq: c.Uvarint(), Writer: id(c)}
}

func arc(c *wire.Cursor) node.Arc {
	return node.Arc{Start: node.Point(c.Uvarint()), Width: c.Uvarint()}
}

func keyVersion(c *wire.Cursor) repair.KeyVersion {
	return repair.KeyVersion{Key: c.Str(), Version: version(c)}
}

// versionMap is the one count-sized allocation outside list: the count
// is biased by one (see appendVersionMap) and sizes a map, under the
// same wire.MaxCountHint.
func versionMap(c *wire.Cursor) map[string]tuple.Version {
	biased := c.Uvarint()
	if biased == 0 || !c.Fits(biased-1, minKeyVersion) {
		return nil
	}
	out := make(map[string]tuple.Version, min(biased-1, wire.MaxCountHint))
	for n := biased - 1; n > 0 && c.Err() == nil; n-- {
		key := c.Str()
		out[key] = version(c)
	}
	return out
}

// tuplePtr reads a presence byte and, when set, one tuple in the tuple
// codec's encoding, decoded in place.
func tuplePtr(c *wire.Cursor) *tuple.Tuple {
	if !c.Bool() { // absent, or the cursor has already failed
		return nil
	}
	return tuple.Decode(c)
}

func rumor(c *wire.Cursor) gossip.Rumor {
	return gossip.Rumor{ID: c.Uvarint(), Hops: c.Int(), Payload: payload(c)}
}

// payload reads a rumor's sub-tagged payload.
func payload(c *wire.Cursor) any {
	switch sub := c.Byte(); sub {
	case payloadNil:
		return nil
	case payloadWritePayload:
		return epidemic.WritePayload{Tuple: tuplePtr(c), Origin: id(c), Entry: id(c)}
	default:
		c.Fail(fmt.Errorf("transport: unknown rumor payload sub-tag %d", sub))
		return nil
	}
}
