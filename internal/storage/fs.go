package storage

import (
	"errors"
	"io"
	"os"
	"sort"
	"sync"
)

// FS abstracts the handful of filesystem operations the log-
// structured layers (write-ahead log, checkpoints, state-spill
// segments) perform, so tests can inject faults (CrashFS) without
// touching the log or store logic.
type FS interface {
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Open opens path for reading.
	Open(path string) (io.ReadCloser, error)
	// OpenReaderAt opens path for positional reads. Unlike Open's
	// reader, the handle sees bytes appended after it was opened, so a
	// long-lived handle on a file still being written stays current.
	OpenReaderAt(path string) (ReaderAt, error)
	// ReadDir returns the names in dir, sorted. A missing directory
	// yields an empty list, not an error.
	ReadDir(dir string) ([]string, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	RemoveAll(path string) error
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and removals
	// durable.
	SyncDir(dir string) error
	// Size returns the byte size of path.
	Size(path string) (int64, error)
}

// File is a writable log or checkpoint file.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// ReaderAt is a positional read handle (see FS.OpenReaderAt).
type ReaderAt interface {
	io.ReaderAt
	io.Closer
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (osFS) Open(path string) (io.ReadCloser, error)    { return os.Open(path) }
func (osFS) OpenReaderAt(path string) (ReaderAt, error) { return os.Open(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) Size(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ErrCrashed is returned by a CrashFS once its write budget is
// exhausted: the simulated machine has lost power.
var ErrCrashed = errors.New("storage: simulated crash (write budget exhausted)")

// CrashFS wraps an FS and simulates power loss at a chosen byte
// offset: the first Budget bytes written through it reach the inner
// filesystem; the write that crosses the budget is cut short — a torn
// write, exactly what a real crash mid-write leaves behind — and every
// mutating operation after that fails with ErrCrashed. Reads keep
// working, so a test can "reboot" and inspect what survived.
type CrashFS struct {
	inner FS

	mu        sync.Mutex
	remaining int64
	crashed   bool
}

// NewCrashFS wraps inner with a write budget of budget bytes.
func NewCrashFS(inner FS, budget int64) *CrashFS {
	return &CrashFS{inner: inner, remaining: budget}
}

// Crashed reports whether the budget has been exhausted.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// consume reserves up to n bytes of budget; it returns how many bytes
// of the write survive and whether the crash fired on this write.
func (c *CrashFS) consume(n int) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, true
	}
	if int64(n) <= c.remaining {
		c.remaining -= int64(n)
		return n, false
	}
	allowed := int(c.remaining)
	c.remaining = 0
	c.crashed = true
	return allowed, true
}

func (c *CrashFS) mutate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	return nil
}

func (c *CrashFS) MkdirAll(dir string) error {
	if err := c.mutate(); err != nil {
		return err
	}
	return c.inner.MkdirAll(dir)
}

func (c *CrashFS) Create(path string) (File, error) {
	if err := c.mutate(); err != nil {
		return nil, err
	}
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: c, f: f}, nil
}

func (c *CrashFS) OpenAppend(path string) (File, error) {
	if err := c.mutate(); err != nil {
		return nil, err
	}
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: c, f: f}, nil
}

func (c *CrashFS) Open(path string) (io.ReadCloser, error) { return c.inner.Open(path) }
func (c *CrashFS) OpenReaderAt(path string) (ReaderAt, error) {
	return c.inner.OpenReaderAt(path)
}
func (c *CrashFS) ReadDir(dir string) ([]string, error) { return c.inner.ReadDir(dir) }
func (c *CrashFS) Size(path string) (int64, error)      { return c.inner.Size(path) }

func (c *CrashFS) Rename(oldPath, newPath string) error {
	if err := c.mutate(); err != nil {
		return err
	}
	return c.inner.Rename(oldPath, newPath)
}

func (c *CrashFS) Remove(path string) error {
	if err := c.mutate(); err != nil {
		return err
	}
	return c.inner.Remove(path)
}

func (c *CrashFS) RemoveAll(path string) error {
	if err := c.mutate(); err != nil {
		return err
	}
	return c.inner.RemoveAll(path)
}

func (c *CrashFS) Truncate(path string, size int64) error {
	if err := c.mutate(); err != nil {
		return err
	}
	return c.inner.Truncate(path, size)
}

func (c *CrashFS) SyncDir(dir string) error {
	if err := c.mutate(); err != nil {
		return err
	}
	return c.inner.SyncDir(dir)
}

type crashFile struct {
	fs *CrashFS
	f  File
}

func (cf *crashFile) Write(p []byte) (int, error) {
	allowed, crashed := cf.fs.consume(len(p))
	if allowed > 0 {
		n, err := cf.f.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	if crashed {
		return allowed, ErrCrashed
	}
	return len(p), nil
}

func (cf *crashFile) Sync() error {
	if err := cf.fs.mutate(); err != nil {
		return err
	}
	return cf.f.Sync()
}

// Close always closes the inner file — a crashed process's descriptors
// are closed by the OS regardless.
func (cf *crashFile) Close() error { return cf.f.Close() }
