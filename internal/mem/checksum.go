package mem

// Word-level checksums for end-to-end transfer verification: the transfer
// engine hashes a slice on the sending side and re-hashes the landed data
// on the receiving side, so injected corruption is detected and retried
// rather than silently propagated into kernel results.

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Checksum returns the FNV-1a 64-bit hash of ws, folding each word in
// byte-wise little-endian order. The empty slice hashes to the FNV offset
// basis, so zero-length transfers verify trivially.
func Checksum(ws []Word) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range ws {
		u := uint64(w)
		for shift := 0; shift < 64; shift += 8 {
			h ^= (u >> shift) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

// ChecksumRange hashes length words of global memory starting at offset,
// the device-side half of a transfer verification.
func (g *Global) ChecksumRange(offset, length int) (uint64, error) {
	if err := g.CheckRead(offset, length); err != nil {
		return 0, err
	}
	g.settle()
	return Checksum(g.words[offset : offset+length]), nil
}
