package snapshot

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var e Encoder
	e.U64(0)
	e.U64(1)
	e.U64(1<<63 + 17)
	e.I64(-1)
	e.I64(1 << 40)
	e.Int(-12345)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{0xde, 0xad})
	e.Bytes(nil)
	e.String("gcd")
	e.String("")

	d := NewDecoder(e.Data())
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"u64 zero", d.U64(), uint64(0)},
		{"u64 one", d.U64(), uint64(1)},
		{"u64 big", d.U64(), uint64(1<<63 + 17)},
		{"i64 neg", d.I64(), int64(-1)},
		{"i64 big", d.I64(), int64(1 << 40)},
		{"int neg", d.Int(), -12345},
		{"bool true", d.Bool(), true},
		{"bool false", d.Bool(), false},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{0xde, 0xad}) {
		t.Errorf("bytes: got %x", b)
	}
	if b := d.Bytes(); len(b) != 0 {
		t.Errorf("empty bytes: got %x", b)
	}
	if s := d.String(); s != "gcd" {
		t.Errorf("string: got %q", s)
	}
	if s := d.String(); s != "" {
		t.Errorf("empty string: got %q", s)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode err: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining: %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	// A bool byte of 7 poisons the decoder; everything after returns zero
	// values and the first error is preserved.
	d := NewDecoder([]byte{7, 42})
	if d.Bool() {
		t.Fatal("bad bool decoded as true")
	}
	first := d.Err()
	if first == nil {
		t.Fatal("expected error from bad bool byte")
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("poisoned U64 = %d", v)
	}
	if d.Err() != first {
		t.Fatalf("error was overwritten: %v", d.Err())
	}
}

func TestDecoderBoundsLengths(t *testing.T) {
	var e Encoder
	e.U64(1 << 40) // absurd length prefix, no payload
	d := NewDecoder(e.Data())
	if b := d.Bytes(); b != nil {
		t.Fatalf("oversized Bytes returned %d bytes", len(b))
	}
	if d.Err() == nil {
		t.Fatal("oversized length must error")
	}

	var e2 Encoder
	e2.Int(1 << 40)
	d2 := NewDecoder(e2.Data())
	if n := d2.Count(); n != 0 {
		t.Fatalf("oversized Count returned %d", n)
	}
	if d2.Err() == nil {
		t.Fatal("oversized count must error")
	}

	var e3 Encoder
	e3.Int(-4)
	d3 := NewDecoder(e3.Data())
	if n := d3.Count(); n != 0 {
		t.Fatalf("negative Count returned %d", n)
	}
	if d3.Err() == nil {
		t.Fatal("negative count must error")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	var body Encoder
	body.String("pe[0][0]")
	body.U64(99)
	enc := Encode(Header{Fingerprint: "fp-abc", Cycle: 1234}, body.Data())

	h, d, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Version != Version || h.Fingerprint != "fp-abc" || h.Cycle != 1234 {
		t.Fatalf("header: %+v", h)
	}
	if s := d.String(); s != "pe[0][0]" {
		t.Fatalf("body string: %q", s)
	}
	if v := d.U64(); v != 99 {
		t.Fatalf("body u64: %d", v)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("body: err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	enc := Encode(Header{Fingerprint: "fp", Cycle: 7}, []byte("statestate"))

	cases := []struct {
		name   string
		mangle func([]byte) []byte
		substr string
	}{
		{"empty", func(b []byte) []byte { return nil }, "shorter"},
		{"short", func(b []byte) []byte { return b[:10] }, "shorter"},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic"},
		{"flipped body bit", func(b []byte) []byte { b[len(Magic)+4] ^= 1; return b }, "digest"},
		{"flipped digest bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "digest"},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }, "digest"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xcc) }, "digest"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mangled := c.mangle(append([]byte(nil), enc...))
			_, _, err := Decode(mangled)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if !strings.Contains(err.Error(), c.substr) {
				t.Fatalf("error %q does not mention %q", err, c.substr)
			}
		})
	}
}

func TestContainerRejectsUnknownVersion(t *testing.T) {
	// Hand-build containers with a foreign version and a valid digest:
	// only the version check can reject them. Version 1 predates the
	// fabric's idle-streak field and must be refused like any other.
	for _, ver := range []uint64{1, 99} {
		var e Encoder
		e.buf = append(e.buf, Magic...)
		e.U64(ver)
		e.String("fp")
		e.I64(0)
		e.Bytes(nil)
		framed := e.Data()
		sumOver := append([]byte(nil), framed...)
		enc := appendDigest(sumOver)
		_, _, err := Decode(enc)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: want version error, got %v", ver, err)
		}
	}
}

// appendDigest frames raw bytes with the container digest, for building
// deliberately odd-but-digest-valid containers in tests.
func appendDigest(framed []byte) []byte {
	sum := sha256.Sum256(framed)
	return append(framed, sum[:]...)
}

func TestHeaderDigestCoversFingerprint(t *testing.T) {
	// Tampering with the fingerprint in-place must be caught by the
	// digest, not silently accepted as a different program's snapshot.
	enc := Encode(Header{Fingerprint: "AAAA", Cycle: 1}, []byte("s"))
	i := bytes.Index(enc, []byte("AAAA"))
	if i < 0 {
		t.Fatal("fingerprint not found in encoding")
	}
	enc[i] = 'B'
	if _, _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered fingerprint accepted: %v", err)
	}
}
