package durable

import (
	"io"
	"testing"

	"jisc/internal/storage"
)

func reopenCatalog(t *testing.T, dir string, stats *Stats) (*Catalog, []CatalogEntry) {
	t.Helper()
	c, entries, _, err := OpenCatalog(Options{Dir: dir}, stats)
	if err != nil {
		t.Fatal(err)
	}
	return c, entries
}

// The catalog folds CREATE/DROP in command order across restarts: the
// live set after reopening is exactly the queries created and not yet
// dropped, in creation order.
func TestCatalogFoldsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, entries := reopenCatalog(t, dir, nil)
	if len(entries) != 0 {
		t.Fatalf("fresh catalog has %d entries", len(entries))
	}
	if err := c.AppendCreate("a", 100, "(0 1)"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendCreate("b", 200, "((0 1) 2)"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendDrop("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendCreate("c", 300, "(1 2)"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, entries := reopenCatalog(t, dir, nil)
	defer c2.Close()
	want := []CatalogEntry{
		{Name: "b", Window: 200, Plan: "((0 1) 2)"},
		{Name: "c", Window: 300, Plan: "(1 2)"},
	}
	if len(entries) != len(want) {
		t.Fatalf("entries = %+v, want %+v", entries, want)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
	// The reopened catalog continues the sequence: re-creating "a" must
	// append, not clash.
	if err := c2.AppendCreate("a", 100, "(0 1)"); err != nil {
		t.Fatal(err)
	}
}

// A torn catalog tail (crash mid-CREATE) is truncated on reopen and the
// surviving prefix replays; the lost record was never acknowledged.
func TestCatalogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	c, _ := reopenCatalog(t, dir, nil)
	if err := c.AppendCreate("keep", 100, "(0 1)"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendCreate("torn", 200, "(1 2)"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	path := CatalogPath(dir)
	n, err := storage.OS().Size(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.OS().Truncate(path, n-2); err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	c2, entries := reopenCatalog(t, dir, stats)
	defer c2.Close()
	if len(entries) != 1 || entries[0].Name != "keep" {
		t.Fatalf("entries = %+v, want only %q", entries, "keep")
	}
	if stats.TornTruncations.Load() != 1 {
		t.Fatalf("TornTruncations = %d, want 1", stats.TornTruncations.Load())
	}
	// The truncated tail must be reusable: the next append lands where
	// the torn record was.
	if err := c2.AppendCreate("next", 300, "(0 2)"); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	_, entries = reopenCatalog(t, dir, nil)
	if len(entries) != 2 || entries[1].Name != "next" {
		t.Fatalf("after re-append: %+v", entries)
	}
}

// Feed records don't belong in the catalog; a catalog holding one is
// damage, not a torn write, and must be a hard error.
func TestCatalogRejectsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	data, err := appendFrame(nil, Record{Kind: KindFeed, Seq: 1, Stream: 0, Key: 7})
	if err != nil {
		t.Fatal(err)
	}
	f, err := storage.OS().Create(CatalogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()
	if _, _, _, err := OpenCatalog(Options{Dir: dir}, nil); err == nil {
		t.Fatal("catalog accepted a feed record")
	}
}

// Crash-consistency for the catalog: at every write budget the
// surviving file reopens cleanly and folds to a prefix of the
// acknowledged creates.
func TestCatalogCrashConsistency(t *testing.T) {
	names := []string{"q0", "q1", "q2", "q3"}
	full := func() int64 {
		dir := t.TempDir()
		c, _ := reopenCatalog(t, dir, nil)
		for _, n := range names {
			if err := c.AppendCreate(n, 100, "(0 1)"); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		n, err := storage.OS().Size(CatalogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}()
	for budget := int64(0); budget <= full; budget++ {
		dir := t.TempDir()
		crash := storage.NewCrashFS(storage.OS(), budget)
		c, _, _, err := OpenCatalog(Options{Dir: dir, FS: crash}, nil)
		if err != nil {
			continue // crashed before the catalog existed
		}
		acked := 0
		for _, n := range names {
			if err := c.AppendCreate(n, 100, "(0 1)"); err != nil {
				break
			}
			acked++
		}
		c.Close()
		c2, entries, _, err := OpenCatalog(Options{Dir: dir}, nil)
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		c2.Close()
		// Every acknowledged create survived (always-fsync), and
		// anything beyond is at most the one in-flight record.
		if len(entries) < acked || len(entries) > acked+1 {
			t.Fatalf("budget %d: %d acked but %d recovered", budget, acked, len(entries))
		}
		for i, e := range entries {
			if e.Name != names[i] {
				t.Fatalf("budget %d: entry %d = %q, want %q", budget, i, e.Name, names[i])
			}
		}
	}
}

// The catalog folds AUTO toggles per query — last toggle wins, and a
// DROP takes the query's autopilot state with it so a later re-CREATE
// starts with AUTO off.
func TestCatalogFoldsAutoToggles(t *testing.T) {
	dir := t.TempDir()
	c, _, auto, err := OpenCatalog(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != 0 {
		t.Fatalf("fresh catalog has auto state %v", auto)
	}
	for _, step := range []func() error{
		func() error { return c.AppendCreate("a", 100, "(0 1)") },
		func() error { return c.AppendCreate("b", 100, "(0 1)") },
		func() error { return c.AppendAuto("a", true) },
		func() error { return c.AppendAuto("b", true) },
		func() error { return c.AppendAuto("b", false) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	c2, entries, auto, err := OpenCatalog(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v, want a and b", entries)
	}
	if len(auto) != 1 || !auto["a"] {
		t.Fatalf("auto = %v, want map[a:true]", auto)
	}
	// Dropping a clears its toggle even though the last AUTO record for
	// a says on.
	if err := c2.AppendDrop("a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.AppendCreate("a", 100, "(0 1)"); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	c3, entries, auto, err := OpenCatalog(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if len(entries) != 2 {
		t.Fatalf("entries after re-create = %+v", entries)
	}
	if len(auto) != 0 {
		t.Fatalf("auto = %v after DROP+re-CREATE, want empty", auto)
	}
}

// shortWriteFS is a filesystem whose files' write number `at` (counted
// across the files it opened, from 1) writes half its bytes and fails.
type shortWriteFS struct {
	storage.FS
	at, n int
}

func (f *shortWriteFS) OpenAppend(path string) (storage.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &shortWriteFile{File: file, fs: f}, nil
}

type shortWriteFile struct {
	storage.File
	fs *shortWriteFS
}

func (w *shortWriteFile) Write(p []byte) (int, error) {
	w.fs.n++
	if w.fs.n == w.fs.at {
		n, _ := w.File.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return w.File.Write(p)
}

// A failed append fails every later one: a CREATE acknowledged after a
// torn frame would sit past the tail reopen truncates, and be lost.
func TestCatalogFailsAfterShortWrite(t *testing.T) {
	dir := t.TempDir()
	c, _, _, err := OpenCatalog(Options{Dir: dir, FS: &shortWriteFS{FS: storage.OS(), at: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendCreate("a", 100, "(0 1)"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendCreate("b", 100, "(0 1)"); err == nil {
		t.Fatal("short write acknowledged")
	}
	if err := c.AppendCreate("c", 100, "(0 1)"); err == nil {
		t.Fatal("CREATE after a failed write acknowledged")
	}
	if err := c.AppendDrop("a"); err == nil {
		t.Fatal("DROP after a failed write acknowledged")
	}
	c.Close()
	c2, entries := reopenCatalog(t, dir, nil)
	defer c2.Close()
	if len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("reopened catalog folds to %+v, want [a]", entries)
	}
}

// A catalog opens fresh on MemFS too: its missing-file error is the OS
// filesystem's kind.
func TestCatalogOnMemFS(t *testing.T) {
	fs := storage.NewMemFS()
	c, entries, _, err := OpenCatalog(Options{Dir: "d", FS: fs}, nil)
	if err != nil || len(entries) != 0 {
		t.Fatalf("fresh MemFS catalog: %v entries, %v", entries, err)
	}
	if err := c.AppendCreate("a", 100, "(0 1)"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, entries, _, err := OpenCatalog(Options{Dir: "d", FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("reopened MemFS catalog folds to %+v, want [a]", entries)
	}
}
