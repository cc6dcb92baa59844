package transport

// decodeRequest is splitRequest with the operation name decoded, the
// shape the codec tests compare against what they encoded.
func decodeRequest(payload []byte) (op string, body []byte, err error) {
	opb, body, err := splitRequest(payload)
	return string(opb), body, err
}
