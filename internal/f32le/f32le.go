// Package f32le holds the rule every caltrain file and wire format
// shares for a float32: its IEEE-754 bits, little-endian, four bytes
// each. Append and Decode are the one pair of helpers that apply it,
// Words applies it to any 4-byte word's bits, and View reads such words
// where they lie. On a little-endian host the bytes already are the
// words' memory, so all four copy or view them in bulk; a big-endian
// host takes the per-word loop, which is also the reference
// FuzzFloatCodecParity holds the bulk path to.
package f32le

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// littleEndian selects the bulk copy: the host lays a float32 out in
// memory the way the formats store it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Append appends the encoding of v to b and returns the extended slice.
func Append(b []byte, v []float32) []byte {
	if littleEndian {
		return append(b, bytesOf(v)...)
	}
	return appendLoop(b, v)
}

// Decode fills dst from the first 4·len(dst) bytes of b; a shorter b
// panics.
func Decode(dst []float32, b []byte) {
	b = b[:4*len(dst)]
	if littleEndian {
		copy(bytesOf(dst), b)
		return
	}
	decodeLoop(dst, b)
}

// Words returns the encoding of v's elements' bits — a float's, or an
// integer column's — as the formats store a float32: on a little-endian
// host v's own memory, which the caller must not write to; elsewhere
// the encoding built in *scratch (wordsLoop), valid until the next call
// with it.
func Words[T word](v []T, scratch *[]byte) []byte {
	if littleEndian {
		return bytesOf(v)
	}
	*scratch = wordsLoop((*scratch)[:0], v)
	return *scratch
}

// View returns the words b encodes, in b's own memory: on a
// little-endian host b viewed as them, which the caller must not write
// to; elsewhere b decoded in place (viewLoop), so b must be writable.
// b's length is a multiple of 4, and its start 4-byte aligned.
func View[T word](b []byte) []T {
	if littleEndian {
		return wordsOf[T](b)
	}
	return viewLoop[T](b)
}

// Native reports whether the host's words are the formats' bytes: then
// View leaves b as it is, and b may be a read-only mapping of a file.
func Native() bool { return littleEndian }

// word is a 4-byte element whose bits Words encodes.
type word interface{ ~float32 | ~int32 | ~uint32 }

// bytesOf views v's memory as its 4·len(v) bytes.
func bytesOf[T word](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// wordsOf views b's memory as its len(b)/4 words.
func wordsOf[T word](b []byte) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// appendLoop is Append one float at a time, for any host byte order.
func appendLoop(b []byte, v []float32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// decodeLoop is Decode one float at a time, for any host byte order.
func decodeLoop(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// wordsLoop appends v's encoding to b one word at a time, for any host
// byte order.
func wordsLoop[T word](b []byte, v []T) []byte {
	b = slices.Grow(b, 4*len(v))
	for i := range v {
		b = binary.LittleEndian.AppendUint32(b, *(*uint32)(unsafe.Pointer(&v[i])))
	}
	return b
}

// viewLoop is View one word at a time, for any host byte order: each
// word is read from its bytes and stored back over them.
func viewLoop[T word](b []byte) []T {
	v := wordsOf[T](b)
	for i := range v {
		*(*uint32)(unsafe.Pointer(&v[i])) = binary.LittleEndian.Uint32(b[4*i:])
	}
	return v
}
