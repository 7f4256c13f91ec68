package nn

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"

	"caltrain/internal/f32le"
	"caltrain/internal/tensor"
)

// Binary model format: magic, version, JSON-encoded Config, then the
// parameter tensors of each ParamLayer in network order. Models released
// to participants at the end of training use this encoding (with the
// FrontNet segment separately sealed — see the core package).
const (
	modelMagic   = "CTNN"
	modelVersion = 1
)

// Save serializes the network's architecture and weights to w.
func Save(w io.Writer, cfg Config, net *Network) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(modelMagic); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(modelVersion)); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("nn: save config: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(cfgJSON))); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	if _, err := bw.Write(cfgJSON); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	if err := WriteParams(bw, net, 0, net.NumLayers()); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteParams streams the raw parameters of layers [lo, hi) to w. The
// partitioned release path uses it to serialize just the FrontNet for
// per-participant sealing.
func WriteParams(w io.Writer, net *Network, lo, hi int) error {
	for i := lo; i < hi; i++ {
		pl, ok := net.Layer(i).(ParamLayer)
		if !ok {
			continue
		}
		for _, p := range pl.Params() {
			if err := writeTensor(w, p); err != nil {
				return fmt.Errorf("nn: layer %d: %w", i, err)
			}
		}
	}
	return nil
}

// ReadParams loads raw parameters for layers [lo, hi) from r, the inverse
// of WriteParams. Tensor shapes must match the network's.
func ReadParams(r io.Reader, net *Network, lo, hi int) error {
	for i := lo; i < hi; i++ {
		pl, ok := net.Layer(i).(ParamLayer)
		if !ok {
			continue
		}
		for _, p := range pl.Params() {
			if err := readTensorInto(r, p); err != nil {
				return fmt.Errorf("nn: layer %d: %w", i, err)
			}
		}
	}
	return nil
}

func writeTensor(w io.Writer, t *tensor.Tensor) error {
	shape := t.Shape()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	_, err := w.Write(f32le.Append(make([]byte, 0, 4*t.Len()), t.Data()))
	return err
}

func readTensorInto(r io.Reader, t *tensor.Tensor) error {
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return err
	}
	want := t.Shape()
	if int(rank) != len(want) {
		return fmt.Errorf("nn: tensor rank %d, want %d", rank, len(want))
	}
	for _, wd := range want {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return err
		}
		if int(d) != wd {
			return fmt.Errorf("nn: tensor dim %d, want %d", d, wd)
		}
	}
	buf := make([]byte, 4*t.Len())
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	f32le.Decode(t.Data(), buf)
	return nil
}

// Load deserializes a model saved by Save, returning its config and a
// network with the stored weights.
func Load(r io.Reader) (Config, *Network, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return Config{}, nil, fmt.Errorf("nn: load: %w", err)
	}
	if string(magic) != modelMagic {
		return Config{}, nil, fmt.Errorf("nn: load: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return Config{}, nil, fmt.Errorf("nn: load: %w", err)
	}
	if version != modelVersion {
		return Config{}, nil, fmt.Errorf("nn: load: unsupported version %d", version)
	}
	var cfgLen uint32
	if err := binary.Read(br, binary.LittleEndian, &cfgLen); err != nil {
		return Config{}, nil, fmt.Errorf("nn: load: %w", err)
	}
	if cfgLen > 1<<20 {
		return Config{}, nil, fmt.Errorf("nn: load: config length %d implausibly large", cfgLen)
	}
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(br, cfgJSON); err != nil {
		return Config{}, nil, fmt.Errorf("nn: load: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return Config{}, nil, fmt.Errorf("nn: load config: %w", err)
	}
	// Weight values are about to be overwritten; the seed only has to be
	// deterministic so Build succeeds.
	net, err := Build(cfg, rand.New(rand.NewPCG(0, 0)))
	if err != nil {
		return Config{}, nil, fmt.Errorf("nn: load: %w", err)
	}
	if err := ReadParams(br, net, 0, net.NumLayers()); err != nil {
		return Config{}, nil, err
	}
	return cfg, net, nil
}

// CopyParams copies all parameters of layers [lo, hi) from src to dst.
// The two networks must share an architecture.
func CopyParams(dst, src *Network, lo, hi int) error {
	if dst.NumLayers() != src.NumLayers() {
		return fmt.Errorf("nn: CopyParams layer count mismatch %d vs %d", dst.NumLayers(), src.NumLayers())
	}
	for i := lo; i < hi; i++ {
		dp, dok := dst.Layer(i).(ParamLayer)
		sp, sok := src.Layer(i).(ParamLayer)
		if dok != sok {
			return fmt.Errorf("nn: CopyParams layer %d kind mismatch", i)
		}
		if !dok {
			continue
		}
		dParams, sParams := dp.Params(), sp.Params()
		if len(dParams) != len(sParams) {
			return fmt.Errorf("nn: CopyParams layer %d param count mismatch", i)
		}
		for j := range dParams {
			if !dParams[j].SameShape(sParams[j]) {
				return fmt.Errorf("nn: CopyParams layer %d param %d shape mismatch", i, j)
			}
			copy(dParams[j].Data(), sParams[j].Data())
		}
	}
	return nil
}
