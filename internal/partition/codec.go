package partition

import (
	"encoding/binary"
	"fmt"

	"caltrain/internal/f32le"
	"caltrain/internal/tensor"
)

// The enclave call boundary exchanges byte slices only (sgx.Enclave.Call),
// so tensors and label vectors crossing between FrontNet and BackNet are
// serialized with the little-endian codec below. In the feedforward phase
// the encoded payloads are the intermediate representations (IRs) the
// paper delivers out of the enclave; in the backpropagation phase they are
// the delta values delivered back in (§IV-B).

// EncodeTensor serializes a tensor: u32 rank, u32 dims, float32 data.
// The data section is bulk-encoded: boundary crossings happen every
// training step, so the codec must run at memcpy-like speed (as the
// hardware's enclave-boundary copies do).
func EncodeTensor(t *tensor.Tensor) []byte {
	shape := t.Shape()
	data := t.Data()
	out := make([]byte, 0, 4+4*len(shape)+4*len(data))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(shape)))
	for _, d := range shape {
		out = binary.LittleEndian.AppendUint32(out, uint32(d))
	}
	return f32le.Append(out, data)
}

// DecodeTensor inverts EncodeTensor.
func DecodeTensor(buf []byte) (*tensor.Tensor, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("partition: tensor header truncated")
	}
	rank := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if rank <= 0 || rank > 8 {
		return nil, fmt.Errorf("partition: implausible tensor rank %d", rank)
	}
	if len(buf) < 4*rank {
		return nil, fmt.Errorf("partition: tensor dims truncated")
	}
	shape := make([]int, rank)
	n := 1
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(buf))
		if shape[i] <= 0 {
			return nil, fmt.Errorf("partition: non-positive tensor dim %d", shape[i])
		}
		n *= shape[i]
		buf = buf[4:]
	}
	if len(buf) != 4*n {
		return nil, fmt.Errorf("partition: tensor payload %d bytes, want %d", len(buf), 4*n)
	}
	data := make([]float32, n)
	f32le.Decode(data, buf)
	return tensor.FromSlice(data, shape...), nil
}
