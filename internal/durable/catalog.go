package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"jisc/internal/storage"
)

// The catalog is the server-level log of query topology: one CREATE
// record per CREATE command, one DROP per DROP, in command order. On
// restart the server folds the catalog to the live query set and
// recreates each query, whose own per-shard logs then restore its
// state. CREATE/DROP are rare control operations, so the catalog
// always fsyncs — there is no batching window in which a CREATE could
// be acknowledged and lost.

// CatalogEntry is one live query after folding the catalog.
type CatalogEntry struct {
	Name   string
	Window int
	// Plan is the plan the query was CREATEd with. Later migrations
	// live in the query's own shard logs, not here.
	Plan string
}

// Catalog is the open, appendable catalog log.
type Catalog struct {
	fs   storage.FS
	path string
	dir  string

	mu     sync.Mutex
	f      storage.File
	seq    uint64
	buf    []byte
	closed bool
}

// CatalogPath returns the catalog file under the durability root.
func CatalogPath(root string) string { return filepath.Join(root, "catalog.wal") }

// OpenCatalog opens (creating if needed) the catalog under opts.Dir,
// replays it, truncates any torn tail at a record boundary, and
// returns the surviving log, the folded live query set in creation
// order, and the folded autopilot state — the set of query names whose
// last AUTO toggle was ON and that were not dropped afterwards.
func OpenCatalog(opts Options, stats *Stats) (*Catalog, []CatalogEntry, map[string]bool, error) {
	opts = opts.WithDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, nil, nil, err
	}
	path := CatalogPath(opts.Dir)
	c := &Catalog{fs: fs, path: path, dir: opts.Dir}

	var entries []CatalogEntry
	auto := make(map[string]bool)
	data, err := readFile(fs, path)
	if err == nil {
		valid, serr := scanFrames(data, func(r Record) error {
			if r.Seq != c.seq+1 {
				return fmt.Errorf("durable: catalog gap: expected seq %d, found %d", c.seq+1, r.Seq)
			}
			c.seq = r.Seq
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
				return fmt.Errorf("durable: record kind %d does not belong in the catalog", r.Kind)
			}
			return nil
		})
		if serr != nil {
			return nil, nil, nil, serr
		}
		if valid < int64(len(data)) {
			if err := fs.Truncate(path, valid); err != nil {
				return nil, nil, nil, fmt.Errorf("durable: truncating torn catalog tail: %w", err)
			}
			if stats != nil {
				stats.TornTruncations.Add(1)
			}
		}
		if stats != nil {
			stats.RecoveredEvents.Add(c.seq)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}

	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, nil, nil, err
	}
	c.f = f
	return c, entries, auto, nil
}

// AppendCreate durably logs a query creation before it is
// acknowledged.
func (c *Catalog) AppendCreate(name string, window int, plan string) error {
	return c.append(Record{Kind: KindCreate, Name: name, Window: window, Plan: plan})
}

// AppendDrop durably logs a query removal.
func (c *Catalog) AppendDrop(name string) error {
	return c.append(Record{Kind: KindDrop, Name: name})
}

// AppendAuto durably logs an autopilot toggle for a query.
func (c *Catalog) AppendAuto(name string, on bool) error {
	return c.append(Record{Kind: KindAuto, Name: name, Auto: on})
}

func (c *Catalog) append(r Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrLogClosed
	}
	r.Seq = c.seq + 1
	buf, err := appendFrame(c.buf[:0], r)
	if err != nil {
		return err
	}
	c.buf = buf
	if _, err := c.f.Write(buf); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.seq = r.Seq
	return nil
}

// Close closes the catalog file.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.f.Close()
}
