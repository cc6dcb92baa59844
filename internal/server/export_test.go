package server

// HandleGetDelta is s's obj.getdelta handler: what it answers a puller
// with, to the byte.
func HandleGetDelta(s *Server, body []byte) ([]byte, error) { return s.handleGetDelta(body) }
