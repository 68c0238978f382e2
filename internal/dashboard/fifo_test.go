//go:build unix

package dashboard

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestReadTraceFileRejectsFIFO: a FIFO Stats as size 0 and opening it
// blocks until a writer appears, so it must be refused before Open.
func TestReadTraceFileRejectsFIFO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipe")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := readTraceFile(path, false, maxTraceBytes)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "not a regular file") {
			t.Errorf("got %v, want a not-a-regular-file error", err)
		}
	case <-time.After(10 * time.Second):
		// Unblock the reader so the test binary can exit.
		if w, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
			w.Close()
		}
		t.Fatal("readTraceFile blocked opening a FIFO")
	}
}
