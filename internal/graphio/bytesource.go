package graphio

import "io"

// byteSource abstracts random access to a shard file's bytes. Every read —
// the index scan at open time, the manifest and row pointers, each shard
// section straight into its destination array — is a ReadAt: one copy out
// of the page cache from the mmap implementation (mapfile_unix.go), one
// positioned read from the portable fallback (mapfile_fallback.go) and the
// in-memory test path.
type byteSource interface {
	io.ReaderAt
	Size() int64
	Close() error
}

// readerAtSource adapts any io.ReaderAt (a file on the no-mmap build, a
// bytes.Reader in tests and the fuzz/corruption harnesses) into a
// byteSource.
type readerAtSource struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer // nil when the reader does not own a resource
}

func (s *readerAtSource) ReadAt(p []byte, off int64) (int, error) { return s.r.ReadAt(p, off) }

func (s *readerAtSource) Size() int64 { return s.size }

func (s *readerAtSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
