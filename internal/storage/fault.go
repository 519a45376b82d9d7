package storage

import (
	"sync"
	"syscall"
)

// FaultFS wraps an FS and injects the two resource faults a log must
// survive into the files opened through it, by Create and OpenAppend
// alike. Writes and Syncs are counted across all those files, from 1:
// write number FailWrite writes half its bytes and fails with ENOSPC (a
// full disk), and sync number FailSync fails with EIO without syncing
// (a device error). Zero injects no such fault, and every other call
// passes through to FS. The zero counters are ready to use; a FaultFS
// is safe for concurrent use.
type FaultFS struct {
	FS
	FailWrite, FailSync int

	mu            sync.Mutex
	writes, syncs int
}

// Create implements FS.
func (f *FaultFS) Create(path string) (File, error) { return f.wrap(f.FS.Create(path)) }

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(path string) (File, error) { return f.wrap(f.FS.OpenAppend(path)) }

func (f *FaultFS) wrap(file File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// hit counts one call and reports whether it is the one to fail.
func (f *FaultFS) hit(count *int, at int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	*count++
	return *count == at
}

type faultFile struct {
	File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.fs.hit(&w.fs.writes, w.fs.FailWrite) {
		n, _ := w.File.Write(p[:len(p)/2]) // the injected fault is the error to report
		return n, syscall.ENOSPC
	}
	return w.File.Write(p)
}

func (w *faultFile) Sync() error {
	if w.fs.hit(&w.fs.syncs, w.fs.FailSync) {
		return syscall.EIO
	}
	return w.File.Sync()
}
