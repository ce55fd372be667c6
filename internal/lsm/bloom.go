// Bloom-filter sidecars: one filter per SSTable so a point lookup can skip
// tables that cannot hold the key without touching their index or data
// blocks. The filter is standard double hashing (Kirsch–Mitzenmacher) over
// FNV-64a, ~10 bits and 7 probes per key, which puts the false-positive rate
// around 1%. Sidecars are advisory: a missing or corrupt .blm file is
// rebuilt from the table's index block at open, never trusted blindly.
package lsm

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
)

const (
	bloomBitsPerKey = 10
	bloomProbes     = 7
)

var blmMagic = []byte("SOUPBLM\x01")

type bloomFilter struct {
	bits  []byte
	nbits uint64
	k     int
}

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloomFilter {
	nbits := uint64(n * bloomBitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	return &bloomFilter{bits: make([]byte, (nbits+7)/8), nbits: nbits, k: bloomProbes}
}

// keyHash is 64-bit FNV-1a over a composite key's bytes — exactly what
// hash/fnv's New64a computes, so sidecars written either way agree — without
// building the key as a string or allocating a hasher.
func keyHash[K string | []byte](ck K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(ck); i++ {
		h ^= uint64(ck[i])
		h *= 1099511628211
	}
	return h
}

// probeStep derives the double-hashing increment from a key's hash; it is
// odd, so the probes visit every position.
func probeStep(h1 uint64) uint64 { return (h1>>33 | h1<<31) | 1 }

// add sets the probe bits of the key whose keyHash is h1.
func (b *bloomFilter) add(h1 uint64) {
	h2 := probeStep(h1)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// mayContain reports whether the key whose keyHash is h1 may be in the set.
func (b *bloomFilter) mayContain(h1 uint64) bool {
	h2 := probeStep(h1)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// marshal serialises the filter: magic, geometry, bit array, CRC trailer.
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 0, len(blmMagic)+20+len(b.bits)+4)
	out = append(out, blmMagic...)
	out = binary.AppendUvarint(out, b.nbits)
	out = binary.AppendUvarint(out, uint64(b.k))
	out = append(out, b.bits...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// loadBloom reads a sidecar file; any defect is an error so the caller can
// fall back to rebuilding the filter from the table itself.
func loadBloom(path string) (*bloomFilter, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeBloom(raw)
}

// decodeBloom parses a sidecar's bytes into a filter whose bit array covers
// every position a probe can reach.
func decodeBloom(raw []byte) (*bloomFilter, error) {
	if len(raw) < len(blmMagic)+4 || string(raw[:len(blmMagic)]) != string(blmMagic) {
		return nil, errors.New("lsm: bad bloom sidecar")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("lsm: bloom sidecar CRC mismatch")
	}
	rest := body[len(blmMagic):]
	nbits, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, errors.New("lsm: bad bloom geometry")
	}
	rest = rest[n:]
	k, n := binary.Uvarint(rest)
	// Probes land in [0, nbits), so the bit array must hold exactly nbits
	// rounded up to bytes, and nbits may not be zero.
	if n <= 0 || k == 0 || k > 64 || nbits == 0 || nbits > 8*uint64(len(rest)-n) || uint64(len(rest)-n) != (nbits+7)/8 {
		return nil, errors.New("lsm: bad bloom geometry")
	}
	return &bloomFilter{bits: rest[n:], nbits: nbits, k: int(k)}, nil
}
