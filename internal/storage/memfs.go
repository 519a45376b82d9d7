package storage

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS. It exists for fault-injection sweeps at
// scale: the simulation harness runs thousands of CrashFS crash/
// recovery scenarios per test invocation, and backing each with a real
// temp directory would spend the suite's budget on disk I/O. Semantics
// match the durability layer's use of a POSIX filesystem: appends see
// existing content, Create truncates, Rename replaces, ReadDir is
// sorted, and Sync/SyncDir are no-ops (an in-memory write is "durable"
// the moment it lands, the same model CrashFS cuts writes against).
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte), dirs: make(map[string]bool)}
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir != "" && dir != "/" && dir != "." {
		m.dirs[dir] = true
		i := strings.LastIndexByte(dir, '/')
		if i < 0 {
			break
		}
		dir = dir[:i]
	}
	return nil
}

type memFile struct {
	fs   *MemFS
	path string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.path] = append(f.fs.files[f.path], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// Create implements FS: open for writing, truncating existing content.
func (m *MemFS) Create(path string) (File, error) {
	m.mu.Lock()
	m.files[path] = nil
	m.mu.Unlock()
	return &memFile{fs: m, path: path}, nil
}

// OpenAppend implements FS: open for appending, creating if absent.
func (m *MemFS) OpenAppend(path string) (File, error) {
	m.mu.Lock()
	if _, ok := m.files[path]; !ok {
		m.files[path] = nil
	}
	m.mu.Unlock()
	return &memFile{fs: m, path: path}, nil
}

// Open implements FS: open for reading. The reader sees a snapshot of
// the content at Open time.
func (m *MemFS) Open(path string) (io.ReadCloser, error) {
	m.mu.Lock()
	data, ok := m.files[path]
	snapshot := append([]byte(nil), data...)
	m.mu.Unlock()
	if !ok {
		return nil, notExist("open", path)
	}
	return io.NopCloser(bytes.NewReader(snapshot)), nil
}

// memReaderAt reads the live content of one MemFS file.
type memReaderAt struct {
	fs   *MemFS
	path string
}

func (r memReaderAt) ReadAt(p []byte, off int64) (n int, err error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if data := r.fs.files[r.path]; off < int64(len(data)) {
		n = copy(p, data[off:])
	}
	if n < len(p) {
		err = io.EOF
	}
	return n, err
}

func (memReaderAt) Close() error { return nil }

// OpenReaderAt implements FS: positional reads of the file's current
// content (no snapshot).
func (m *MemFS) OpenReaderAt(path string) (ReaderAt, error) {
	m.mu.Lock()
	_, ok := m.files[path]
	m.mu.Unlock()
	if !ok {
		return nil, notExist("open", path)
	}
	return memReaderAt{fs: m, path: path}, nil
}

// ReadDir implements FS: immediate children of dir, sorted. A missing
// directory yields an empty list, like the OS implementation.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	seen := make(map[string]bool)
	for path := range m.files {
		if rest, ok := strings.CutPrefix(path, prefix); ok && !strings.Contains(rest, "/") {
			seen[rest] = true
		}
	}
	for path := range m.dirs {
		if rest, ok := strings.CutPrefix(path, prefix); ok && !strings.Contains(rest, "/") {
			seen[rest] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS, replacing any existing target.
func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldPath]
	if !ok {
		return notExist("rename", oldPath)
	}
	delete(m.files, oldPath)
	m.files[newPath] = data
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

// RemoveAll implements FS: remove path and everything under it.
func (m *MemFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(path, "/") + "/"
	for p := range m.files {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(m.files, p)
		}
	}
	for p := range m.dirs {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(m.dirs, p)
		}
	}
	return nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return notExist("truncate", path)
	}
	if size > int64(len(data)) {
		grown := make([]byte, size)
		copy(grown, data)
		m.files[path] = grown
		return nil
	}
	m.files[path] = data[:size]
	return nil
}

// SyncDir implements FS (no-op in memory).
func (m *MemFS) SyncDir(string) error { return nil }

// Size implements FS.
func (m *MemFS) Size(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return 0, notExist("stat", path)
	}
	return int64(len(data)), nil
}

// notExist is MemFS's error for a missing path. It wraps
// fs.ErrNotExist, as the OS filesystem's errors do, so a caller tests
// for a missing file one way whichever FS it runs on.
func notExist(op, path string) error {
	return fmt.Errorf("memfs: %s %s: %w", op, path, fs.ErrNotExist)
}

var _ FS = (*MemFS)(nil)
