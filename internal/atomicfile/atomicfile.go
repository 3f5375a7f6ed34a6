// Package atomicfile writes small files crash-safely: data lands in a
// temporary file in the destination directory, is fsynced, and is renamed
// over the destination in one atomic step, so a reader (or a process
// recovering after a crash) only ever observes the old contents, the new
// contents, or a stray temp file it can ignore — never a torn write.
//
// This is the persistence discipline the campaign server's job manifests
// and the dispatcher's campaign state ride on: their readers
// (record.ScanDir, server restart recovery, dispatch resume) are written to
// skip foreign files, and atomicfile guarantees the files they do read are
// whole.
package atomicfile

import (
	"os"
	"path/filepath"
)

// TempPattern is the os.CreateTemp pattern suffix every atomic write uses.
// Scanners that enumerate directories (record.ScanDir, restart recovery)
// can rely on mid-write temp files containing ".atomic-" and never carrying
// the destination's exact name.
const TempPattern = ".atomic-*"

// WriteFile writes data to path atomically: temp file in path's directory,
// fsync, rename, then a best-effort fsync of the directory so the rename
// itself survives a crash. On any error the temp file is removed and the
// destination is untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+TempPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Best
// effort: some filesystems reject directory fsync, and the rename is still
// atomic without it — crash durability degrades to the filesystem's own
// journaling.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
