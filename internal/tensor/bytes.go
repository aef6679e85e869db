package tensor

import (
	"encoding/binary"
	"math"
)

// PutFloat32s stores src in dst as little-endian IEEE 754 bit patterns, four
// bytes per element — the form tensors take in model files and checkpoint
// frames on every architecture. dst must hold 4·len(src) bytes.
func PutFloat32s(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// GetFloat32s is the inverse of PutFloat32s: it fills dst from the first
// 4·len(dst) bytes of src. Every bit pattern is a float32, so nothing can
// fail; NaN payloads survive the round trip.
func GetFloat32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
