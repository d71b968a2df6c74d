package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"

	"datadroplets/internal/node"
	"datadroplets/internal/wire"
)

// Wire format (little-endian, varint lengths):
//
//	magic byte 0xD7, format version byte 0x01
//	key      : uvarint len + bytes
//	version  : uvarint seq, uvarint writer
//	flags    : 1 byte (bit0 = deleted, bit1 = has value)
//	value    : uvarint len + bytes            (if bit1)
//	attrs    : uvarint count + (name, float64 bits) pairs, name-sorted
//	tags     : uvarint count + names
//
// The format is self-contained per tuple so gossip payloads and store
// snapshots share one codec. Decoding runs on wire.Cursor, so a tuple
// inside a DDN1 frame is read under the frame's rules: the first
// failure sticks, and a count must fit the bytes left before it sizes
// anything.

const (
	wireMagic   = 0xD7
	wireVersion = 0x01

	flagDeleted  = 1 << 0
	flagHasValue = 1 << 1

	// maxListLen caps the attribute and tag counts, even where the bytes
	// could hold more.
	maxListLen = 1 << 16
)

// Codec errors. A truncated tuple is wire.ErrTruncated, whether it
// arrives alone or inside a DDN1 frame.
var (
	ErrBadMagic   = errors.New("tuple: bad magic byte")
	ErrBadVersion = errors.New("tuple: unsupported wire version")
	ErrTruncated  = wire.ErrTruncated
)

// AppendMarshal appends the wire encoding of t to dst and returns the
// extended slice. It never fails on a validated tuple.
func AppendMarshal(dst []byte, t *Tuple) []byte {
	dst = append(dst, wireMagic, wireVersion)
	dst = wire.AppendString(dst, t.Key)
	dst = binary.AppendUvarint(dst, t.Version.Seq)
	dst = binary.AppendUvarint(dst, uint64(t.Version.Writer))
	var flags byte
	if t.Deleted {
		flags |= flagDeleted
	}
	if t.Value != nil {
		flags |= flagHasValue
	}
	dst = append(dst, flags)
	if t.Value != nil {
		dst = binary.AppendUvarint(dst, uint64(len(t.Value)))
		dst = append(dst, t.Value...)
	}
	names := t.sortedAttrNames()
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = wire.AppendString(dst, name)
		dst = wire.AppendF64(dst, t.Attrs[name])
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Tags)))
	for _, tag := range t.Tags {
		dst = wire.AppendString(dst, tag)
	}
	return dst
}

// Marshal returns the wire encoding of t.
func Marshal(t *Tuple) []byte {
	return AppendMarshal(make([]byte, 0, 64+len(t.Key)+len(t.Value)), t)
}

// Unmarshal decodes one tuple from b and returns it with the number of
// bytes consumed, so callers can decode concatenated streams.
func Unmarshal(b []byte) (*Tuple, int, error) {
	var c wire.Cursor
	c.Reset(b)
	t := Decode(&c)
	if err := c.Err(); err != nil {
		return nil, 0, err
	}
	return t, len(b) - c.Len(), nil
}

// Decode reads one tuple from c. On malformed input it fails c and
// returns nil; the caller checks c.Err.
func Decode(c *wire.Cursor) *Tuple {
	if magic := c.Byte(); c.Err() == nil && magic != wireMagic {
		c.Fail(ErrBadMagic)
	}
	if ver := c.Byte(); c.Err() == nil && ver != wireVersion {
		c.Fail(fmt.Errorf("%w: %#x", ErrBadVersion, ver))
	}
	t := &Tuple{Key: c.Str(), Version: Version{Seq: c.Uvarint(), Writer: node.ID(c.Uvarint())}}
	flags := c.Byte()
	t.Deleted = flags&flagDeleted != 0
	if flags&flagHasValue != 0 {
		n := c.Uvarint()
		if n > MaxValueLen {
			c.Fail(ErrValueTooBig)
		}
		if raw := c.Bytes(int(n)); c.Err() == nil {
			t.Value = make([]byte, n)
			copy(t.Value, raw)
		}
	}
	if n := listLen(c, 1+8, "attributes"); n > 0 {
		t.Attrs = make(map[string]float64, n)
		for ; n > 0 && c.Err() == nil; n-- {
			name := c.Str()
			t.Attrs[name] = c.F64()
		}
	}
	if n := listLen(c, 1, "tags"); n > 0 {
		t.Tags = make([]string, 0, n)
		for ; n > 0 && c.Err() == nil; n-- {
			t.Tags = append(t.Tags, c.Str())
		}
	}
	if c.Err() != nil {
		return nil
	}
	return t
}

// listLen reads an attribute or tag count under the cursor's count rule
// (an attribute takes at least a name length and 8 float bytes, a tag a
// length) and the maxListLen cap, which equals wire.MaxCountHint: no
// count reserves more than a DDN1 list may. A failed count reads as 0.
func listLen(c *wire.Cursor, minElemBytes int, what string) int {
	n := c.Uvarint()
	if !c.Fits(n, minElemBytes) {
		return 0
	}
	if n > maxListLen {
		c.Fail(fmt.Errorf("tuple: %d %s exceeds limit", n, what))
		return 0
	}
	return int(n)
}
