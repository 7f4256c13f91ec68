// Package seal implements participant-side training-data protection: each
// training participant "locally seals their private data with their own
// symmetric keys and submits the encrypted data to a training server"
// (§IV-A). Records are AES-256-GCM encrypted and authenticated; the class
// label travels in plaintext but is bound into the authentication tag,
// because the threat model has participants "release the training data
// labels attached to their corresponding (encrypted) training instances"
// (§III) while the image content stays confidential.
//
// The encrypted image bytes are a fixed little-endian float32 encoding so
// the in-enclave decryption path is deterministic, and every record's
// SHA-256 content digest is computable inside the enclave for the linkage
// structure's H field (§IV-C).
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"

	"caltrain/internal/f32le"
)

// Errors returned by record operations.
var (
	// ErrAuthFailed reports a record that failed AES-GCM authentication —
	// either tampered in transit or encrypted under an unprovisioned key.
	// The training stage discards such records (§IV-A, Authenticity and
	// Integrity Checking).
	ErrAuthFailed = errors.New("seal: record failed authentication")
	// ErrMalformed reports a structurally invalid record encoding.
	ErrMalformed = errors.New("seal: malformed record")
)

// KeySize is the participant symmetric key size (AES-256).
const KeySize = 32

// Key is a participant's symmetric data key — the secret provisioned into
// the training enclave over the attested channel.
type Key [KeySize]byte

// NewKey derives a fresh key from rng (participants generate keys locally;
// a deterministic rng makes experiments reproducible).
func NewKey(rng *rand.Rand) Key {
	var k Key
	for i := range k {
		k[i] = byte(rng.UintN(256))
	}
	return k
}

// Record is one sealed training instance as it travels to the training
// server.
type Record struct {
	// Participant identifies the data source (the S of the linkage tuple).
	Participant string
	// Index is the record's index within the participant's submission.
	Index uint32
	// Label is the plaintext class label.
	Label int32
	// Nonce is the GCM nonce.
	Nonce []byte
	// Ciphertext is the encrypted image payload with the GCM tag.
	Ciphertext []byte
}

func recordAAD(participant string, index uint32, label int32) []byte {
	aad := make([]byte, 0, len(participant)+9)
	aad = append(aad, participant...)
	aad = binary.LittleEndian.AppendUint32(aad, index)
	aad = binary.LittleEndian.AppendUint32(aad, uint32(label))
	return aad
}

func newGCM(key Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("seal: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: gcm: %w", err)
	}
	return gcm, nil
}

// EncodeImage converts a float32 image to its canonical byte encoding.
func EncodeImage(img []float32) []byte {
	return f32le.Append(make([]byte, 0, 4*len(img)), img)
}

// DecodeImage inverts EncodeImage.
func DecodeImage(buf []byte) ([]float32, error) {
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("%w: image payload length %d", ErrMalformed, len(buf))
	}
	img := make([]float32, len(buf)/4)
	f32le.Decode(img, buf)
	return img, nil
}

// ContentHash returns the SHA-256 digest of an image's canonical encoding
// — the H field of the linkage tuple, used during forensics to verify that
// a participant turned in "exactly the same data as used in training"
// (§IV-C).
func ContentHash(img []float32) [32]byte {
	return sha256.Sum256(EncodeImage(img))
}

// SealRecord encrypts one training instance under the participant's key.
// nonceRNG supplies nonce randomness.
func SealRecord(key Key, participant string, index uint32, label int32, img []float32, nonceRNG *rand.Rand) (*Record, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	for i := range nonce {
		nonce[i] = byte(nonceRNG.UintN(256))
	}
	ct := gcm.Seal(nil, nonce, EncodeImage(img), recordAAD(participant, index, label))
	return &Record{
		Participant: participant,
		Index:       index,
		Label:       label,
		Nonce:       nonce,
		Ciphertext:  ct,
	}, nil
}

// OpenRecord authenticates and decrypts a record with the participant's
// provisioned key, returning the image. Any tampering with the ciphertext,
// nonce, label, participant ID, or index fails authentication.
func OpenRecord(key Key, r *Record) ([]float32, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	pt, err := gcm.Open(nil, r.Nonce, r.Ciphertext, recordAAD(r.Participant, r.Index, r.Label))
	if err != nil {
		return nil, ErrAuthFailed
	}
	return DecodeImage(pt)
}

// EncryptBlob encrypts an arbitrary payload under a participant key with
// AES-256-GCM (nonce prepended). The model-release path uses it to seal
// the FrontNet per participant (§IV-B: "the learned model is delivered to
// all training participants respectively with the FrontNet encrypted with
// symmetric keys provisioned by different training participants").
func EncryptBlob(key Key, data, aad []byte, nonceRNG *rand.Rand) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	for i := range nonce {
		nonce[i] = byte(nonceRNG.UintN(256))
	}
	return gcm.Seal(nonce, nonce, data, aad), nil
}

// DecryptBlob opens a blob produced by EncryptBlob.
func DecryptBlob(key Key, blob, aad []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize() {
		return nil, fmt.Errorf("%w: blob too short", ErrMalformed)
	}
	out, err := gcm.Open(nil, blob[:gcm.NonceSize()], blob[gcm.NonceSize():], aad)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return out, nil
}

// Wire format: version byte, then length-prefixed fields. Batches are a
// count-prefixed sequence of records.
const wireVersion = 1

// Marshal encodes the record for transport.
func (r *Record) Marshal() []byte {
	out := []byte{wireVersion}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Participant)))
	out = append(out, r.Participant...)
	out = binary.LittleEndian.AppendUint32(out, r.Index)
	out = binary.LittleEndian.AppendUint32(out, uint32(r.Label))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Nonce)))
	out = append(out, r.Nonce...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Ciphertext)))
	out = append(out, r.Ciphertext...)
	return out
}

// UnmarshalRecord decodes one record and returns the remaining bytes.
func UnmarshalRecord(buf []byte) (*Record, []byte, error) {
	fail := func(what string) (*Record, []byte, error) {
		return nil, nil, fmt.Errorf("%w: %s", ErrMalformed, what)
	}
	if len(buf) < 1 || buf[0] != wireVersion {
		return fail("version")
	}
	buf = buf[1:]
	if len(buf) < 2 {
		return fail("participant length")
	}
	plen := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < plen+8 {
		return fail("participant")
	}
	r := &Record{Participant: string(buf[:plen])}
	buf = buf[plen:]
	r.Index = binary.LittleEndian.Uint32(buf)
	r.Label = int32(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if len(buf) < 2 {
		return fail("nonce length")
	}
	nlen := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < nlen {
		return fail("nonce")
	}
	r.Nonce = append([]byte(nil), buf[:nlen]...)
	buf = buf[nlen:]
	if len(buf) < 4 {
		return fail("ciphertext length")
	}
	clen := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < clen {
		return fail("ciphertext")
	}
	r.Ciphertext = append([]byte(nil), buf[:clen]...)
	return r, buf[clen:], nil
}

// MarshalBatch encodes a record sequence for submission to the training
// server.
func MarshalBatch(records []*Record) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(records)))
	for _, r := range records {
		out = append(out, r.Marshal()...)
	}
	return out
}

// UnmarshalBatch decodes a record sequence.
func UnmarshalBatch(buf []byte) ([]*Record, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: batch header", ErrMalformed)
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if n > 10_000_000 {
		return nil, fmt.Errorf("%w: implausible batch count %d", ErrMalformed, n)
	}
	records := make([]*Record, 0, n)
	for i := uint32(0); i < n; i++ {
		r, rest, err := UnmarshalRecord(buf)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		records = append(records, r)
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(buf))
	}
	return records, nil
}
