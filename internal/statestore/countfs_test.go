package statestore

import (
	"sync/atomic"

	"jisc/internal/storage"
)

// CountingFS wraps an FS and counts what the spill tier asks of it:
// read handles opened and closed, positional reads, and write calls
// with their bytes. Segment creations are counted as well, so a test
// can bound handles by files.
type CountingFS struct {
	storage.FS
	Creates, Opens, Closes, Reads, Writes, Written atomic.Int64
	// OnRead, when set, runs inside every positional read.
	OnRead func()
}

func (c *CountingFS) Create(path string) (storage.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	c.Creates.Add(1)
	return &countingFile{File: f, fs: c}, nil
}

func (c *CountingFS) OpenReaderAt(path string) (storage.ReaderAt, error) {
	r, err := c.FS.OpenReaderAt(path)
	if err != nil {
		return nil, err
	}
	c.Opens.Add(1)
	return &countingReader{ReaderAt: r, fs: c}, nil
}

type countingFile struct {
	storage.File
	fs *CountingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.Writes.Add(1)
	f.fs.Written.Add(int64(len(p)))
	return f.File.Write(p)
}

type countingReader struct {
	storage.ReaderAt
	fs *CountingFS
}

func (r *countingReader) ReadAt(p []byte, off int64) (int, error) {
	r.fs.Reads.Add(1)
	if r.fs.OnRead != nil {
		r.fs.OnRead()
	}
	return r.ReaderAt.ReadAt(p, off)
}

func (r *countingReader) Close() error {
	r.fs.Closes.Add(1)
	return r.ReaderAt.Close()
}
