// Package server exercises the publish path: UnmarshalBundle is a
// source, buildWire (the precomputed wire table) is a sink, and
// Bundle.Validate is a summary-derived receiver sanitizer — the
// signature check inside it vouches for the whole bundle.
package server

import (
	"context"
	"errors"

	"fixture/internal/keys"
	"fixture/internal/transport"
)

type Bundle struct {
	Key      []byte
	Sig      []byte
	Elements map[string][]byte
}

func UnmarshalBundle(data []byte) (*Bundle, error) {
	if len(data) == 0 {
		return nil, errors.New("server: empty bundle")
	}
	return &Bundle{Key: data, Elements: map[string][]byte{}}, nil
}

// Validate checks the bundle signature: its summary marks the receiver
// as sanitized, so a validated bundle is trusted downstream.
func (b *Bundle) Validate(pk keys.PublicKey) error {
	return pk.Verify(b.Key, b.Sig)
}

func buildWire(b *Bundle) map[string][]byte {
	wire := make(map[string][]byte, len(b.Elements))
	for name, data := range b.Elements {
		wire[name] = data
	}
	return wire
}

// Install validates before precomputing. Clean: Validate washes b.
func Install(b *Bundle, pk keys.PublicKey) (map[string][]byte, error) {
	if err := b.Validate(pk); err != nil {
		return nil, err
	}
	return buildWire(b), nil
}

// InstallUnchecked skips validation: its summary marks the bundle
// parameter as sink-reaching.
func InstallUnchecked(b *Bundle) map[string][]byte {
	return buildWire(b)
}

// HandleAdmin is the clean admin path: bytes off the wire are
// unmarshalled, validated, then installed.
func HandleAdmin(ctx context.Context, tc *transport.Client, pk keys.PublicKey) error {
	body, err := tc.Call(ctx, "admin.install", nil)
	if err != nil {
		return err
	}
	b, err := UnmarshalBundle(body)
	if err != nil {
		return err
	}
	_, err = Install(b, pk)
	return err
}

// HandleAdminUnchecked feeds an unvalidated wire bundle into the
// precomputed table: flagged through InstallUnchecked's summary.
func HandleAdminUnchecked(ctx context.Context, tc *transport.Client) error {
	body, err := tc.Call(ctx, "admin.install", nil)
	if err != nil {
		return err
	}
	b, err := UnmarshalBundle(body)
	if err != nil {
		return err
	}
	InstallUnchecked(b)
	return nil
}

// Update is the clean update path. Install and update share the one
// table builder, so the sink row covers a pulled or admin-sent update as
// it covers a first install — behind the same Validate gate.
func Update(ctx context.Context, tc *transport.Client, pk keys.PublicKey) (map[string][]byte, error) {
	body, err := tc.Call(ctx, "adm.exec", nil)
	if err != nil {
		return nil, err
	}
	b, err := UnmarshalBundle(body)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(pk); err != nil {
		return nil, err
	}
	return buildWire(b), nil
}

// UpdateUnchecked is the network-fed update path (a puller's transfer,
// an admin update verb) handing the bundle to the builder unvalidated:
// flagged at the builder itself.
func UpdateUnchecked(ctx context.Context, tc *transport.Client) (map[string][]byte, error) {
	body, err := tc.Call(ctx, "adm.exec", nil)
	if err != nil {
		return nil, err
	}
	b, err := UnmarshalBundle(body)
	if err != nil {
		return nil, err
	}
	return buildWire(b), nil
}
