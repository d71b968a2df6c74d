// Inter-node framing helpers shared by the gossip transport and any
// future binary sub-protocol. Where wire.go is the client-facing DDB1
// codec, this file is the generic layer under the node-to-node DDN1
// codec (internal/transport): a connection preamble, length-delimited
// frames, and the uvarint primitives (internal/tuple's codec
// conventions) message bodies are built from.
//
// A DDN1 connection starts with the 4-byte magic "DDN1" followed by the
// sender's node ID as a uvarint — the sender identifies itself once per
// connection instead of once per envelope. Every subsequent frame is a
// big-endian uint32 body length followed by the body; the body's first
// byte is a message tag (internal/transport's registry). Because the
// length alone delimits the frame, a reader that does not understand a
// tag can skip the frame and keep the connection — the rule that lets
// mixed-version clusters survive new message types.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// NodeMagic is the inter-node connection preamble (DataDroplets Node
// protocol, revision 1). Distinct from the client Magic so a client
// dialing a gossip port (or vice versa) fails fast.
const NodeMagic = "DDN1"

// MaxNodeFrame bounds one inter-node frame body. Repair pushes batch
// tuples, so frames are much larger than client frames; anything above
// this is a framing error and the connection must be dropped.
const MaxNodeFrame = 64 << 20

// Inter-node framing errors.
var (
	ErrNodeFrameTooBig = fmt.Errorf("wire: node frame larger than %d bytes", MaxNodeFrame)
	// ErrTruncated reports a body shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated body")
	// ErrTooLong reports a length-prefixed field beyond its limit.
	ErrTooLong = errors.New("wire: length-prefixed field too long")
)

// WriteNodePreamble sends the DDN1 magic and the sender's identity.
func WriteNodePreamble(w io.Writer, self uint64) error {
	var buf [len(NodeMagic) + binary.MaxVarintLen64]byte
	n := copy(buf[:], NodeMagic)
	n += binary.PutUvarint(buf[n:], self)
	_, err := w.Write(buf[:n])
	return err
}

// ReadNodePreamble consumes the DDN1 magic and returns the sender's ID.
func ReadNodePreamble(r *bufio.Reader) (uint64, error) {
	var magic [len(NodeMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, err
	}
	if string(magic[:]) != NodeMagic {
		return 0, ErrBadMagic
	}
	from, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, unexpectedEOF(err)
	}
	return from, nil
}

// WriteNodeFrame emits one length-delimited frame. The caller batches
// frames through the bufio writer and flushes on queue drain, so one
// syscall can carry many envelopes.
func WriteNodeFrame(w *bufio.Writer, body []byte) error {
	if len(body) > MaxNodeFrame {
		return ErrNodeFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadNodeFrame reads one frame body, reusing buf when it is large
// enough. io.EOF is returned untouched when the stream ends cleanly
// between frames; a frame cut short mid-body is io.ErrUnexpectedEOF.
func ReadNodeFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, unexpectedEOF(err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxNodeFrame {
		return nil, ErrNodeFrameTooBig
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

// Body append primitives. Alongside AppendFloat64/AppendUint64 from the
// client codec, these are what message encoders compose bodies from.

// AppendString appends a uvarint length followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendVarint appends a zig-zag encoded signed integer.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendF64 appends a float64 as its little-endian IEEE-754 bits (the
// tuple codec's float convention, kept here so both codecs agree).
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// BodyReader is a bounds-checked cursor over one frame body. Every
// accessor returns ErrTruncated instead of panicking on malformed
// input, so a decoder can reject a frame without losing the connection.
type BodyReader struct {
	buf []byte
	pos int
}

// NewBodyReader wraps a frame body.
func NewBodyReader(b []byte) BodyReader { return BodyReader{buf: b} }

// Len reports the unread bytes remaining.
func (r *BodyReader) Len() int { return len(r.buf) - r.pos }

// Byte reads one byte.
func (r *BodyReader) Byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *BodyReader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

// Varint reads a zig-zag encoded signed varint.
func (r *BodyReader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

// Bytes returns n bytes borrowed from the body (valid until the body
// buffer is recycled; copy to retain).
func (r *BodyReader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) || r.pos+n < 0 {
		return nil, ErrTruncated
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// String reads a uvarint-length-prefixed string, refusing lengths
// beyond limit.
func (r *BodyReader) String(limit int) (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(limit) {
		return "", ErrTooLong
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Unread rewinds the cursor by n bytes — for decoders that hand a tail
// to a sub-codec which reports how much it consumed.
func (r *BodyReader) Unread(n int) error {
	if n < 0 || n > r.pos {
		return ErrTruncated
	}
	r.pos -= n
	return nil
}

// F64 reads a little-endian float64.
func (r *BodyReader) F64() (float64, error) {
	b, err := r.Bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}
