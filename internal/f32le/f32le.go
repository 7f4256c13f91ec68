// Package f32le holds the rule every caltrain file and wire format
// shares for a float32: its IEEE-754 bits, little-endian, four bytes
// each. Append and Decode are the one pair of helpers that apply it. On
// a little-endian host the bytes already are the floats' memory, so both
// copy them in bulk; a big-endian host takes the per-float loop, which is
// also the reference FuzzFloatCodecParity holds the bulk copy to.
package f32le

import (
	"encoding/binary"
	"math"
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

// bytesOf views v's memory as its 4·len(v) bytes.
func bytesOf(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
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
