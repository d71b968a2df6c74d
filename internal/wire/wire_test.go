package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// encodeReq renders one request frame to bytes; it panics on encode
// errors so it can seed the fuzzer as well as the tests.
func encodeReq(req *Request) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := EncodeRequest(w, req); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// sameAppended fails unless AppendRequest, appending after a prefix,
// produces exactly the bytes EncodeRequest wrote and leaves the prefix.
func sameAppended(t *testing.T, req *Request, encoded []byte) {
	t.Helper()
	prefix := []byte("prefix")
	got, err := AppendRequest(prefix, req)
	if err != nil {
		t.Fatalf("%s: AppendRequest: %v", req.Op, err)
	}
	if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], encoded) {
		t.Fatalf("%s: AppendRequest and EncodeRequest disagree:\n%x\n%x", req.Op, got[len(prefix):], encoded)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpPut, Key: "user:1", Value: []byte("alice")},
		{Op: OpPut, Key: "k", Value: []byte{}},
		{Op: OpGet, Key: "user:1"},
		{Op: OpDel, Key: strings.Repeat("k", MaxKeyLen)},
		{Op: OpNEst},
		{Op: OpLen},
		{Op: OpStats},
		{Op: OpPing},
		{Op: OpPut, Key: "big", Value: bytes.Repeat([]byte{0xAB}, MaxValueLen)},
		{Op: OpPut, Key: "binary\x00key", Value: []byte{0, 1, 2, 255}},
	}
	for _, want := range cases {
		raw := encodeReq(&want)
		sameAppended(t, &want, raw)
		var got Request
		if err := DecodeRequest(bufio.NewReader(bytes.NewReader(raw)), &got); err != nil {
			t.Fatalf("%s: DecodeRequest: %v", want.Op, err)
		}
		if got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("%s: round trip mismatch: got %+v", want.Op, got)
		}
	}
}

func TestRequestStreamKeepsFraming(t *testing.T) {
	// Several frames back to back — including an unknown opcode — must
	// decode one by one with no bleed between frames.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	frames := []Request{
		{Op: OpPut, Key: "a", Value: []byte("1")},
		{Op: Op(200), Key: "mystery", Value: []byte("payload")}, // unknown op
		{Op: OpGet, Key: "a"},
	}
	for i := range frames {
		if err := EncodeRequest(w, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Flush()
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		var got Request
		if err := DecodeRequest(r, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if err := DecodeRequest(r, &Request{}); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
	if !frames[1].Op.Valid() {
		// And the unknown opcode is flagged as such for the caller.
		t.Log("unknown opcode correctly invalid")
	} else {
		t.Fatal("Op(200) reported valid")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Status: StatusOK, Payload: AppendUint64(AppendUint64(nil, 42), 3)}, // a version payload
		{Status: StatusValue, Payload: []byte("hello")},
		{Status: StatusNotFound},
		{Status: StatusErr, Payload: []byte("usage: PUT key value")},
		{Status: StatusTimeout},
		{Status: StatusBusy},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := EncodeResponse(w, &want); err != nil {
			t.Fatal(err)
		}
		_ = w.Flush()
		var got Response
		if err := DecodeResponse(bufio.NewReader(&buf), &got); err != nil {
			t.Fatalf("%s: %v", want.Status, err)
		}
		if got.Status != want.Status || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: round trip mismatch: got %+v", want.Status, got)
		}
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	huge := encodeReq(&Request{Op: OpPut, Key: "k", Value: []byte("v")})
	// Corrupt the value length to exceed MaxValueLen.
	hugeVal := append([]byte(nil), huge...)
	hugeVal[3], hugeVal[4], hugeVal[5], hugeVal[6] = 0xFF, 0xFF, 0xFF, 0xFF
	// Corrupt the key length to exceed MaxKeyLen.
	hugeKey := append([]byte(nil), huge...)
	hugeKey[1], hugeKey[2] = 0xFF, 0xFF

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"header cut", huge[:3], io.ErrUnexpectedEOF},
		{"key cut", huge[:reqHeaderLen], io.ErrUnexpectedEOF},
		{"value cut", huge[:len(huge)-1], io.ErrUnexpectedEOF},
		{"value length bomb", hugeVal, ErrValueTooLong},
		{"key length bomb", hugeKey, ErrKeyTooLong},
	}
	for _, tc := range cases {
		var req Request
		err := DecodeRequest(bufio.NewReader(bytes.NewReader(tc.raw)), &req)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeResponseLengthBomb(t *testing.T) {
	raw := []byte{byte(StatusOK), 0xFF, 0xFF, 0xFF, 0xFF}
	var resp Response
	if err := DecodeResponse(bufio.NewReader(bytes.NewReader(raw)), &resp); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("err = %v, want ErrPayloadTooLong", err)
	}
}

func TestDecodeResponseTruncated(t *testing.T) {
	raw := []byte{byte(StatusValue), 0, 0, 0, 3, 'a', 'b', 'c'}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"header cut", raw[:2], io.ErrUnexpectedEOF},
		{"payload cut", raw[:len(raw)-1], io.ErrUnexpectedEOF},
	} {
		var resp Response
		if err := DecodeResponse(bufio.NewReader(bytes.NewReader(tc.raw)), &resp); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeRequestRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := EncodeRequest(w, &Request{Op: OpPut, Key: strings.Repeat("k", MaxKeyLen+1)}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key: err = %v", err)
	}
	if err := EncodeRequest(w, &Request{Op: OpPut, Key: "k", Value: make([]byte, MaxValueLen+1)}); !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("long value: err = %v", err)
	}
	dst := []byte("kept")
	if got, err := AppendRequest(dst, &Request{Op: OpPut, Key: strings.Repeat("k", MaxKeyLen+1)}); !errors.Is(err, ErrKeyTooLong) || string(got) != "kept" {
		t.Fatalf("append long key: %q, %v", got, err)
	}
	if got, err := AppendRequest(dst, &Request{Op: OpPut, Key: "k", Value: make([]byte, MaxValueLen+1)}); !errors.Is(err, ErrValueTooLong) || string(got) != "kept" {
		t.Fatalf("append long value: %q, %v", got, err)
	}
}

func TestMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadMagic(strings.NewReader("HTTP/1.1 GET /")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if err := ReadMagic(strings.NewReader("DD")); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short magic: err = %v", err)
	}
}

func TestPayloadHelpers(t *testing.T) {
	f, err := ParseFloat64(AppendFloat64(nil, 1234.5))
	if err != nil || f != 1234.5 {
		t.Fatalf("float: got %v, %v", f, err)
	}
	u, err := ParseUint64(AppendUint64(nil, 99))
	if err != nil || u != 99 {
		t.Fatalf("uint: got %v, %v", u, err)
	}
}

// FuzzDecodeRequest feeds arbitrary bytes through the request decoder:
// it must never panic or over-allocate, and anything it accepts must
// re-encode to bytes that decode to the same request (the codec is its
// own inverse on its accepted set), and AppendRequest must produce the
// same bytes as EncodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeReq(&Request{Op: OpPut, Key: "user:1", Value: []byte("alice")}))
	f.Add(encodeReq(&Request{Op: OpGet, Key: "user:1"}))
	f.Add(encodeReq(&Request{Op: OpPing}))
	f.Add([]byte{})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		err := DecodeRequest(bufio.NewReader(bytes.NewReader(data)), &req)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := EncodeRequest(w, &req); err != nil {
			t.Fatalf("decoded request failed to re-encode: %v", err)
		}
		_ = w.Flush()
		sameAppended(t, &req, buf.Bytes())
		var again Request
		if err := DecodeRequest(bufio.NewReader(&buf), &again); err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if again.Op != req.Op || again.Key != req.Key || !bytes.Equal(again.Value, req.Value) {
			t.Fatalf("round trip diverged: %+v vs %+v", req, again)
		}
	})
}

// TestDecodeRequestSmallBuffer: a key longer than the reader's buffer
// is read through a scratch slice, with the same result and the same
// truncation error as a key the buffer holds.
func TestDecodeRequestSmallBuffer(t *testing.T) {
	want := Request{Op: OpPut, Key: strings.Repeat("k", 100), Value: []byte("value")}
	raw := encodeReq(&want)
	var got Request
	if err := DecodeRequest(bufio.NewReaderSize(bytes.NewReader(raw), 16), &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != want.Op || got.Key != want.Key || !bytes.Equal(got.Value, want.Value) {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	cut := raw[:reqHeaderLen+50]
	if err := DecodeRequest(bufio.NewReaderSize(bytes.NewReader(cut), 16), &got); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("key cut: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodeRequestAllocatesOnlyTheKey: with a reused Request whose
// value buffer is large enough, decoding a frame allocates the key
// string and nothing else — the header is parsed in the reader's buffer.
func TestDecodeRequestAllocatesOnlyTheKey(t *testing.T) {
	raw := encodeReq(&Request{Op: OpPut, Key: "user:1", Value: []byte("alice")})
	src := bytes.NewReader(raw)
	r := bufio.NewReader(src)
	req := Request{Value: make([]byte, 0, 64)}
	allocs := testing.AllocsPerRun(1000, func() {
		src.Reset(raw)
		r.Reset(src)
		if err := DecodeRequest(r, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("DecodeRequest allocates %.1f times per frame, want 1 (the key)", allocs)
	}
}

// FuzzDecodeResponse feeds arbitrary bytes through the response decoder,
// as FuzzDecodeRequest does the request decoder: no panic, no
// allocation past MaxPayload, and anything it accepts re-encodes to
// bytes that decode to the same response.
func FuzzDecodeResponse(f *testing.F) {
	encode := func(resp *Response) []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := EncodeResponse(w, resp); err != nil {
			panic(err)
		}
		_ = w.Flush()
		return buf.Bytes()
	}
	f.Add(encode(&Response{Status: StatusValue, Payload: []byte("hello")}))
	f.Add(encode(&Response{Status: StatusOK, Payload: AppendUint64(AppendUint64(nil, 42), 3)}))
	f.Add(encode(&Response{Status: StatusNotFound}))
	f.Add([]byte{})
	f.Add([]byte{byte(StatusOK), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := DecodeResponse(bufio.NewReader(bytes.NewReader(data)), &resp); err != nil {
			return
		}
		raw := encode(&resp)
		var again Response
		if err := DecodeResponse(bufio.NewReader(bytes.NewReader(raw)), &again); err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		if again.Status != resp.Status || !bytes.Equal(again.Payload, resp.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", resp, again)
		}
	})
}
