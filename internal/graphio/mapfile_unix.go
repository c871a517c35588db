//go:build (linux || darwin) && !featgraph_nommap

package graphio

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// openByteSource maps the file read-only so a shard section decodes as one
// copy out of the page cache into its destination array; the kernel's
// readahead and eviction then manage the raw bytes while ShardedCSR's
// budget manages the decoded arrays. Files that cannot be mapped (empty
// files, exotic filesystems) degrade to positioned reads. Build with
// -tags featgraph_nommap to force the read-based path everywhere.
//
// Caveat shared with every mmap consumer: truncating the file out from
// under a live mapping turns subsequent loads into SIGBUS. The shard
// writer only replaces files atomically (temp + rename), which keeps the
// old inode alive for open handles, so this needs an external actor
// truncating in place.
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
	size := st.Size()
	if size == 0 {
		return &readerAtSource{r: f, size: 0, closer: f}, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return &readerAtSource{r: f, size: size, closer: f}, nil
	}
	return &mmapSource{f: f, data: data}, nil
}

type mmapSource struct {
	f    *os.File
	data []byte
}

// ReadAt fails a range outside the mapping (a lying section header, or a
// read after Close) with a bounded error instead of a mapping overrun.
func (m *mmapSource) ReadAt(p []byte, off int64) (int, error) {
	if size := int64(len(m.data)); off < 0 || off > size || int64(len(p)) > size-off {
		return 0, fmt.Errorf("range [%d, %d) outside source of %d bytes: %w", off, off+int64(len(p)), size, io.ErrUnexpectedEOF)
	}
	return copy(p, m.data[off:]), nil
}

func (m *mmapSource) Size() int64 { return int64(len(m.data)) }

func (m *mmapSource) Close() error {
	err := syscall.Munmap(m.data)
	m.data = nil
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
