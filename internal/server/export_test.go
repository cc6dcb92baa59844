package server

import "globedoc/internal/globeid"

// HandleGetDelta is s's obj.getdelta handler: what it answers a puller
// with, to the byte.
func HandleGetDelta(s *Server, body []byte) ([]byte, error) { return s.handleGetDelta(body) }

// CarriedCert returns the certificate encoding a decoded delta reply
// carried: the bytes the chain head's CertHash is checked against, and
// the ones the replica verifies and serves.
func CarriedCert(d *DeltaReply) []byte { return d.certWire }

// VerifyDeltaChain is the puller's chain check of a reply read as the
// full state, with no local head for it to start from.
func VerifyDeltaChain(d *DeltaReply, oid globeid.OID) error { return verifyDeltaChain(d, oid, nil) }
