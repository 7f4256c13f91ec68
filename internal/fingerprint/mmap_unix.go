//go:build unix

package fingerprint

import (
	"os"
	"syscall"
)

// mapReadOnly maps the first size bytes of f, read-only and private.
// Pages not yet read still show a write to the file, and a file cut
// short faults on the pages past its end: that is why a mapped file is
// replaced by rename, never written in place.
func mapReadOnly(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE)
}

// unmap releases a mapping nothing views.
func unmap(b []byte) error { return syscall.Munmap(b) }
