package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Store is an append-only JSONL trajectory of Entries: one JSON object
// per line, records in append order. Open reads (and, for a damaged
// trailing line, repairs) the whole file; Append writes through to
// disk immediately, so concurrent writers in one process interleave
// whole lines and a crash loses at most the line being written. A
// Store is safe for concurrent use.
type Store struct {
	path string

	mu      sync.Mutex
	f       *os.File
	entries []Entry
}

// Open opens (creating if missing) the JSONL store at path. A corrupt
// or truncated final line — the footprint of a crashed writer — is
// dropped and the file truncated back to the last good line; damage
// anywhere earlier is a real integrity failure and errors.
func Open(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	entries, good, derr := decodeAll(data)
	if derr != nil {
		return nil, fmt.Errorf("results: %s: %w", path, derr)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if good < int64(len(data)) {
		// Recover: drop the damaged tail so the next append starts a
		// clean line.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Store{path: path, f: f, entries: entries}, nil
}

// decodeAll parses data line by line, returning the entries, the byte
// offset after the last good line, and an error only for non-trailing
// damage.
func decodeAll(data []byte) (entries []Entry, good int64, err error) {
	off := int64(0)
	for len(data) > 0 {
		line := data
		rest := []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		}
		consumed := int64(len(data) - len(rest))
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var e Entry
			if uerr := json.Unmarshal(trimmed, &e); uerr != nil {
				if len(bytes.TrimSpace(rest)) > 0 {
					return nil, 0, fmt.Errorf("corrupt entry at offset %d: %w", off, uerr)
				}
				return entries, off, nil
			}
			entries = append(entries, e)
		}
		off += consumed
		data = rest
	}
	return entries, off, nil
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Append writes one record (with its optional envelope) as a single
// JSON line, flushed before returning.
func (s *Store) Append(rec Record, env *Env) error {
	line, err := json.Marshal(Entry{Record: rec, Env: env})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return err
	}
	s.entries = append(s.entries, Entry{Record: rec, Env: env})
	return nil
}

// PersistRun appends a CLI run's records to <dir>/records.jsonl and
// returns that path ("" when dir is empty or there are no records). It
// stamps the run label, the build stamp (BuildStamp) and worker count on each record,
// and the envelope — saved time, host, the run's wall time, the label —
// on each line: wall-clock and build identity enter only here, so the
// records themselves stay byte-identical across workers and commits.
func PersistRun(dir, run string, recs []Record, workers int, saved time.Time, wall time.Duration) (string, error) {
	if dir == "" || len(recs) == 0 {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "records.jsonl")
	s, err := Open(path)
	if err != nil {
		return "", err
	}
	host, _ := os.Hostname()
	env := &Env{SavedUnix: saved.Unix(), Host: host, WallMs: float64(wall.Milliseconds()), Note: run}
	for _, rec := range recs {
		rec.Run = run
		rec.Git = BuildStamp()
		rec.Workers = workers
		if err := s.Append(rec, env); err != nil {
			s.Close()
			return "", err
		}
	}
	return path, s.Close()
}

// Close releases the file handle. The entries stay queryable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Filter selects entries; zero-valued fields match everything.
type Filter struct {
	// Kind, Workload and Run match the record fields exactly; Machine
	// matches the device preset name.
	Kind, Workload, Run, Machine string
	// N matches the input size when > 0.
	N int
}

// Match reports whether the filter selects r.
func (f Filter) Match(r Record) bool {
	if f.Kind != "" && r.Kind != f.Kind {
		return false
	}
	if f.Workload != "" && r.Workload != f.Workload {
		return false
	}
	if f.Run != "" && r.Run != f.Run {
		return false
	}
	if f.Machine != "" && (r.Machine == nil || r.Machine.Device.Name != f.Machine) {
		return false
	}
	if f.N > 0 && r.N != f.N {
		return false
	}
	return true
}

// Entries returns every stored entry in append order.
func (s *Store) Entries() []Entry { return s.Query(Filter{}) }

// Query returns the entries the filter selects, in append order.
func (s *Store) Query(f Filter) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for _, e := range s.entries {
		if f.Match(e.Record) {
			out = append(out, e)
		}
	}
	return out
}

// Latest returns the most recently appended entry the filter selects.
func (s *Store) Latest(f Filter) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.entries) - 1; i >= 0; i-- {
		if f.Match(s.entries[i].Record) {
			return s.entries[i], true
		}
	}
	return Entry{}, false
}

// Best returns the selected entry with the lowest headline metric
// (fastest run); entries without a metric are skipped. Ties keep the
// earliest.
func (s *Store) Best(f Filter) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best Entry
	bestV, found := 0.0, false
	for _, e := range s.entries {
		if !f.Match(e.Record) {
			continue
		}
		v, _, ok := e.Record.Metric()
		if !ok {
			continue
		}
		if !found || v < bestV {
			best, bestV, found = e, v, true
		}
	}
	return best, found
}
