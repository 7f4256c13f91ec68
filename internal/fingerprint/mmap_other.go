//go:build !unix

package fingerprint

import (
	"errors"
	"os"
)

// mapReadOnly cannot map here: LoadDB reads the file into the heap.
func mapReadOnly(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmap([]byte) error { return nil }
