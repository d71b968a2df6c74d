// Package tuple defines the data model of DataDroplets: versioned tuples
// with a primary key, an opaque value, and typed numeric attributes used
// for distribution-aware placement, ordering and aggregation.
//
// Versions are assigned by the soft-state layer's per-key sequencer; the
// persistent layer assumes writes arrive correctly ordered ("the only
// assumption we do so far is that write operations are correctly ordered
// by the soft-state layer") and resolves duplicates by last-writer-wins on
// the version, which makes epidemic re-delivery idempotent.
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"datadroplets/internal/node"
	"datadroplets/internal/wire"
)

// Version identifies and orders a write request. Seq is the per-key
// sequence number assigned by the soft-state layer; Writer breaks ties
// when two soft-state nodes transiently sequence the same key during a
// partition (the paper assumes this is rare and any deterministic rule
// suffices).
type Version struct {
	Seq    uint64
	Writer node.ID
}

// Compare orders versions: negative if v < o, zero if equal, positive if
// v > o.
func (v Version) Compare(o Version) int {
	switch {
	case v.Seq < o.Seq:
		return -1
	case v.Seq > o.Seq:
		return 1
	case v.Writer < o.Writer:
		return -1
	case v.Writer > o.Writer:
		return 1
	default:
		return 0
	}
}

// Less reports whether v orders strictly before o.
func (v Version) Less(o Version) bool { return v.Compare(o) < 0 }

// IsZero reports whether the version is the zero value (never assigned).
func (v Version) IsZero() bool { return v.Seq == 0 && v.Writer == 0 }

// Next returns the next version in sequence for the same writer.
func (v Version) Next(writer node.ID) Version {
	return Version{Seq: v.Seq + 1, Writer: writer}
}

// String renders the version as seq@writer.
func (v Version) String() string {
	return fmt.Sprintf("%d@%s", v.Seq, v.Writer)
}

// AppendVersion encodes v as the 16-byte DDB1 OK payload of PUT/DEL:
// seq then writer, big-endian uint64s (docs/PROTOCOL.md).
func AppendVersion(dst []byte, v Version) []byte {
	var buf [wire.VersionLen]byte
	binary.BigEndian.PutUint64(buf[0:8], v.Seq)
	binary.BigEndian.PutUint64(buf[8:16], uint64(v.Writer))
	return append(dst, buf[:]...)
}

// ParseVersion decodes a PUT/DEL OK payload.
func ParseVersion(payload []byte) (Version, error) {
	if len(payload) != wire.VersionLen {
		return Version{}, fmt.Errorf("tuple: version payload is %d bytes, want %d", len(payload), wire.VersionLen)
	}
	return Version{
		Seq:    binary.BigEndian.Uint64(payload[0:8]),
		Writer: node.ID(binary.BigEndian.Uint64(payload[8:16])),
	}, nil
}

// Tuple is the unit of storage. Attrs carries the numeric attributes that
// distribution-aware sieves, ordered overlays and aggregation operate on;
// Tags carries correlation hints from the soft-state layer ("the soft-state
// layer can provide hints on which sieve functions should be used").
// Deleted marks a tombstone: deletes must disseminate like writes so that
// replicas converge.
type Tuple struct {
	Key     string
	Value   []byte
	Attrs   map[string]float64
	Tags    []string
	Version Version
	Deleted bool
}

// Validation errors returned by Validate.
var (
	ErrEmptyKey    = errors.New("tuple: empty key")
	ErrKeyTooLong  = errors.New("tuple: key exceeds 4096 bytes")
	ErrNoVersion   = errors.New("tuple: zero version")
	ErrValueTooBig = errors.New("tuple: value exceeds 16 MiB")
)

// MaxKeyLen and MaxValueLen bound what the codec will accept. The limits
// protect the wire format; they are not storage-engine limits.
const (
	MaxKeyLen   = wire.MaxKeyLen
	MaxValueLen = 16 << 20
)

// Validate checks structural invariants before a tuple enters the system.
func (t *Tuple) Validate() error {
	switch {
	case len(t.Key) == 0:
		return ErrEmptyKey
	case len(t.Key) > MaxKeyLen:
		return ErrKeyTooLong
	case len(t.Value) > MaxValueLen:
		return ErrValueTooBig
	case t.Version.IsZero():
		return ErrNoVersion
	}
	return nil
}

// Clone returns a deep copy. A tuple is immutable once sequenced
// (docs/DESIGN.md §1), so hand-offs inside the system — cache, rumor,
// store, a soft node's Get result — share it and never clone. A read
// clones only where its result leaves the system (the facade's
// core.Cluster.settle, Store.Get/GetAny), because a caller may do
// anything to its copy; the server copies the value into the response
// frame instead.
func (t *Tuple) Clone() *Tuple {
	if t == nil {
		return nil
	}
	c := &Tuple{
		Key:     t.Key,
		Version: t.Version,
		Deleted: t.Deleted,
	}
	if t.Value != nil {
		c.Value = make([]byte, len(t.Value))
		copy(c.Value, t.Value)
	}
	if t.Attrs != nil {
		c.Attrs = make(map[string]float64, len(t.Attrs))
		for k, v := range t.Attrs {
			c.Attrs[k] = v
		}
	}
	if t.Tags != nil {
		c.Tags = make([]string, len(t.Tags))
		copy(c.Tags, t.Tags)
	}
	return c
}

// Point is the tuple's position on the key ring, the coordinate sieves and
// the structured ring both partition.
func (t *Tuple) Point() node.Point { return node.HashKey(t.Key) }

// Attr returns the named attribute and whether it is present.
func (t *Tuple) Attr(name string) (float64, bool) {
	v, ok := t.Attrs[name]
	return v, ok
}

// PrimaryTag returns the first tag, or "" if none. Correlation sieves
// collocate tuples by primary tag.
func (t *Tuple) PrimaryTag() string {
	if len(t.Tags) == 0 {
		return ""
	}
	return t.Tags[0]
}

// Equal reports deep equality, used by tests and anti-entropy verification.
func (t *Tuple) Equal(o *Tuple) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Key != o.Key || t.Version != o.Version || t.Deleted != o.Deleted {
		return false
	}
	if string(t.Value) != string(o.Value) {
		return false
	}
	if len(t.Attrs) != len(o.Attrs) {
		return false
	}
	for k, v := range t.Attrs {
		if ov, ok := o.Attrs[k]; !ok || ov != v {
			return false
		}
	}
	if len(t.Tags) != len(o.Tags) {
		return false
	}
	for i := range t.Tags {
		if t.Tags[i] != o.Tags[i] {
			return false
		}
	}
	return true
}

// sortedAttrNames returns attribute names in deterministic order for the
// codec and digest computations.
func (t *Tuple) sortedAttrNames() []string {
	names := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
