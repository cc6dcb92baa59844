package server

import (
	"bytes"
	"context"
)

// HandleGetDelta is s's obj.getdelta handler: what it answers a puller
// with, to the byte.
func HandleGetDelta(s *Server, body []byte) ([]byte, error) {
	bufs, err := s.handleGetDelta(context.Background(), body)
	return bytes.Join(bufs, nil), err
}

// CarriedCert returns the certificate encoding a decoded delta reply
// carried: the bytes the puller compares with the encoding it serves,
// and the ones the replica verifies and serves.
func CarriedCert(d *DeltaReply) []byte { return d.certWire }
