package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"jisc/internal/storage"
)

// The catalog is the server-level log of query topology: one CREATE
// record per CREATE command, one DROP per DROP and one AUTO per
// autopilot toggle, in command order. It is a Log like a shard's, in
// its own directory, recovered by the same routine; on restart the
// server folds it to the live query set and recreates each query,
// whose own per-shard logs then restore its state. CREATE/DROP/AUTO
// are rare control operations, so the catalog always fsyncs — there is
// no batching window in which a CREATE could be acknowledged and lost.
// Its seqs start at 1 and it is never truncated.

// CatalogEntry is one live query after folding the catalog.
type CatalogEntry struct {
	Name   string
	Window int
	// Plan is the plan the query was CREATEd with. Later migrations
	// live in the query's own shard logs, not here.
	Plan string
}

// Catalog is the open, appendable catalog log.
type Catalog struct{ log *Log }

// catalogDir is the catalog's log directory under the durability
// root.
func catalogDir(root string) string { return filepath.Join(root, "catalog") }

// OpenCatalog opens (creating if needed) the catalog under opts.Dir,
// replays it, truncates any torn tail at a record boundary, and
// returns the surviving log, the folded live query set in creation
// order, and the folded autopilot state — the set of query names whose
// last AUTO toggle was ON and that were not dropped afterwards.
func OpenCatalog(opts Options, stats *Stats) (*Catalog, []CatalogEntry, map[string]bool, error) {
	opts = opts.WithDefaults()
	opts.Fsync = FsyncAlways
	dir := catalogDir(opts.Dir)
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, nil, nil, err
	}
	if err := adoptCatalogFile(opts.FS, opts.Dir, dir); err != nil {
		return nil, nil, nil, err
	}
	var entries []CatalogEntry
	auto := make(map[string]bool)
	l, _, err := recoverLog(opts, dir, 0, func(r Record) error {
		switch r.Kind {
		case KindCreate:
			entries = append(entries, CatalogEntry{Name: r.Name, Window: r.Window, Plan: r.Plan})
		case KindDrop:
			for i, e := range entries {
				if e.Name == r.Name {
					entries = append(entries[:i], entries[i+1:]...)
					break
				}
			}
			// A dropped query takes its autopilot state with it; a
			// re-CREATE of the name starts with AUTO off.
			delete(auto, r.Name)
		case KindAuto:
			if r.Auto {
				auto[r.Name] = true
			} else {
				delete(auto, r.Name)
			}
		default:
			return fmt.Errorf("record kind %d does not belong in the catalog", r.Kind)
		}
		return nil
	}, nil, stats)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: catalog: %w", err)
	}
	return &Catalog{log: l}, entries, auto, nil
}

// adoptCatalogFile moves a catalog kept as the one file root/catalog.wal,
// as earlier builds wrote it, into dir as its first segment: the file
// is the catalog's records from seq 1 on, which is what that segment
// holds.
func adoptCatalogFile(fs storage.FS, root, dir string) error {
	old := filepath.Join(root, "catalog.wal")
	if _, err := fs.Size(old); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 {
		return fmt.Errorf("durable: both %s and a catalog in %s exist", old, dir)
	}
	if err := fs.Rename(old, filepath.Join(dir, segmentName(1))); err != nil {
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	return fs.SyncDir(root)
}

// AppendCreate durably logs a query creation before it is
// acknowledged.
func (c *Catalog) AppendCreate(name string, window int, plan string) error {
	_, err := c.log.append(Record{Kind: KindCreate, Name: name, Window: window, Plan: plan})
	return err
}

// AppendDrop durably logs a query removal.
func (c *Catalog) AppendDrop(name string) error {
	_, err := c.log.append(Record{Kind: KindDrop, Name: name})
	return err
}

// AppendAuto durably logs an autopilot toggle for a query.
func (c *Catalog) AppendAuto(name string, on bool) error {
	_, err := c.log.append(Record{Kind: KindAuto, Name: name, Auto: on})
	return err
}

// Close closes the catalog log.
func (c *Catalog) Close() error { return c.log.Close() }
