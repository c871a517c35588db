//go:build !((linux || darwin) && !featgraph_nommap)

package graphio

import "os"

// openByteSource on platforms without the mmap path (or with the
// featgraph_nommap build tag) serves shard payloads with positioned reads
// straight into the destination arrays — the same interface, a read(2)
// where the mapping would page-fault.
func openByteSource(path string) (byteSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &readerAtSource{r: f, size: st.Size(), closer: f}, nil
}
