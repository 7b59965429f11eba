package main

import (
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fsio"
)

// timingFS is an fsio.FS that forwards every call to the wrapped
// filesystem and records how long each write, sync and truncate took,
// keyed by operation and file base name, plus how long each atomic
// commit (CreateTemp through Rename and the directory sync) took.
type timingFS struct {
	fsio.FS
	mu      sync.Mutex
	ops     map[fsKey][]time.Duration
	temps   map[string]time.Time   // open temp file -> CreateTemp start
	renamed map[string][]time.Time // directory -> starts of commits awaiting its SyncDir
	commits []time.Duration
}

type fsKey struct{ op, file string }

func newTimingFS(inner fsio.FS) *timingFS {
	return &timingFS{
		FS:      inner,
		ops:     map[fsKey][]time.Duration{},
		temps:   map[string]time.Time{},
		renamed: map[string][]time.Time{},
	}
}

func (t *timingFS) record(op, path string, d time.Duration) {
	k := fsKey{op, filepath.Base(path)}
	t.mu.Lock()
	t.ops[k] = append(t.ops[k], d)
	t.mu.Unlock()
}

// times returns the recorded durations of op on files named file.
func (t *timingFS) times(op, file string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.ops[fsKey{op, file}]...)
}

// commitTimes returns the durations of the completed atomic commits.
func (t *timingFS) commitTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.commits...)
}

func (t *timingFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	start := time.Now()
	f, err := t.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.temps[f.Name()] = start
	t.mu.Unlock()
	return &timedFile{File: f, fs: t}, nil
}

func (t *timingFS) OpenAppend(path string) (fsio.File, error) {
	f, err := t.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	err := t.FS.Rename(oldpath, newpath)
	t.mu.Lock()
	if start, ok := t.temps[oldpath]; ok {
		delete(t.temps, oldpath)
		if err == nil {
			dir := filepath.Dir(newpath)
			t.renamed[dir] = append(t.renamed[dir], start)
		}
	}
	t.mu.Unlock()
	return err
}

// Remove forgets an aborted temp file.
func (t *timingFS) Remove(path string) error {
	t.mu.Lock()
	delete(t.temps, path)
	t.mu.Unlock()
	return t.FS.Remove(path)
}

func (t *timingFS) Truncate(path string, size int64) error {
	start := time.Now()
	err := t.FS.Truncate(path, size)
	t.record("truncate", path, time.Since(start))
	return err
}

// SyncDir completes every commit renamed into dir before it started.
func (t *timingFS) SyncDir(dir string) error {
	t.mu.Lock()
	pending := t.renamed[dir]
	delete(t.renamed, dir)
	t.mu.Unlock()
	start := time.Now()
	err := t.FS.SyncDir(dir)
	end := time.Now()
	t.record("syncdir", dir, end.Sub(start))
	t.mu.Lock()
	for _, s := range pending {
		t.commits = append(t.commits, end.Sub(s))
	}
	t.mu.Unlock()
	return err
}

// timedFile times the writable handle's Write, Sync and Truncate.
type timedFile struct {
	fsio.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.record("write", f.Name(), time.Since(start))
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.record("sync", f.Name(), time.Since(start))
	return err
}

func (f *timedFile) Truncate(size int64) error {
	start := time.Now()
	err := f.File.Truncate(size)
	f.fs.record("truncate", f.Name(), time.Since(start))
	return err
}
