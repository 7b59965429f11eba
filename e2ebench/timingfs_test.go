package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsio"
)

func TestTimingFSForwardsToDisk(t *testing.T) {
	dir := t.TempDir()
	tfs := newTimingFS(fsio.OS)

	path := filepath.Join(dir, "acks.jsonl")
	af, err := fsio.OpenAppendFS(tfs, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"one\n", "two\n"} {
		if err := af.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := tfs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "one\n" {
		t.Fatalf("file holds %q (%v), want the truncated first line", b, err)
	}
	if n := len(tfs.times("write", "acks.jsonl")); n != 2 {
		t.Errorf("%d writes recorded, want 2", n)
	}
	if n := len(tfs.times("sync", "acks.jsonl")); n < 2 {
		t.Errorf("%d syncs recorded, want one per append", n)
	}
	if n := len(tfs.times("truncate", "acks.jsonl")); n != 1 {
		t.Errorf("%d truncates recorded, want 1", n)
	}

	final := filepath.Join(dir, "result.json")
	if err := fsio.WriteAtomicFS(tfs, final, func(w io.Writer) error {
		_, err := w.Write([]byte("{}\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(final); err != nil || string(b) != "{}\n" {
		t.Fatalf("atomic write left %q (%v)", b, err)
	}
	if n := len(tfs.commitTimes()); n != 1 {
		t.Errorf("%d commits recorded, want 1", n)
	}
	if err := tfs.Truncate(final, 0); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(final); err != nil || fi.Size() != 0 {
		t.Fatalf("path truncate did not reach disk: %v %v", fi, err)
	}
}
