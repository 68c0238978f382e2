package main

import (
	"net/http"
	"testing"
)

func TestNewServerTimeouts(t *testing.T) {
	s := newServer("localhost:0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("timeouts must be set: header %v, read %v, idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.ReadHeaderTimeout > s.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", s.ReadHeaderTimeout, s.ReadTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut long /api/servesweep responses", s.WriteTimeout)
	}
}
