package storage

import (
	"errors"
	"io"
	"path/filepath"
	"syscall"
	"testing"
)

func readAll(t *testing.T, fs FS, path string) string {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The n-th write is counted across every file the FaultFS opened, by
// Create and OpenAppend alike; it lands half its bytes and fails with
// ENOSPC, and the writes around it pass through whole.
func TestFaultFSShortWriteENOSPC(t *testing.T) {
	for _, inner := range []FS{OS(), NewMemFS()} {
		dir := t.TempDir()
		a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
		fs := &FaultFS{FS: inner, FailWrite: 3}
		fa, err := fs.Create(a)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fs.OpenAppend(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range []struct {
			f    File
			data string
			n    int
			err  error
		}{
			{fa, "0123", 4, nil},
			{fb, "abcd", 4, nil},
			{fa, "4567", 2, syscall.ENOSPC},
			{fb, "efgh", 4, nil},
		} {
			n, err := step.f.Write([]byte(step.data))
			if n != step.n || !errors.Is(err, step.err) {
				t.Fatalf("%T write %d = (%d, %v), want (%d, %v)", inner, i+1, n, err, step.n, step.err)
			}
		}
		for _, f := range []File{fa, fb} {
			if err := f.Sync(); err != nil {
				t.Fatalf("%T: sync with no sync fault: %v", inner, err)
			}
			f.Close()
		}
		if got := readAll(t, inner, a); got != "012345" {
			t.Fatalf("%T: a holds %q, want the first write and half the failed one", inner, got)
		}
		if got := readAll(t, inner, b); got != "abcdefgh" {
			t.Fatalf("%T: b holds %q", inner, got)
		}
	}
}

// The n-th sync, counted across files, fails with EIO; the syncs before
// and after it pass through, and no write is touched.
func TestFaultFSSyncEIO(t *testing.T) {
	dir := t.TempDir()
	fs := &FaultFS{FS: OS(), FailSync: 2}
	fa, err := fs.OpenAppend(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := fs.Create(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	for i, want := range []struct {
		f   File
		err error
	}{{fa, nil}, {fb, syscall.EIO}, {fa, nil}, {fb, nil}} {
		if _, err := want.f.Write([]byte("x")); err != nil {
			t.Fatalf("write before sync %d: %v", i+1, err)
		}
		if err := want.f.Sync(); err != want.err {
			t.Fatalf("sync %d = %v, want %v", i+1, err, want.err)
		}
	}
}

// Every call other than a file's Write and Sync passes through to the
// wrapped filesystem, and a zero FaultFS injects nothing.
func TestFaultFSPassesThrough(t *testing.T) {
	mem := NewMemFS()
	fs := &FaultFS{FS: mem}
	f, err := fs.Create("d/x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Write([]byte("ab")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if err := fs.Rename("d/x", "d/y"); err != nil {
		t.Fatal(err)
	}
	if n, err := fs.Size("d/y"); err != nil || n != 10 {
		t.Fatalf("size = %d, %v; want 10", n, err)
	}
	if names, _ := fs.ReadDir("d"); len(names) != 1 || names[0] != "y" {
		t.Fatalf("ReadDir = %v", names)
	}
}
