// Package document implements the GlobeDoc Web document model (paper §2).
//
// A Web document is a collection of logically related Web resources — its
// page elements (HTML files, images, applets, ...). A Web site is a
// collection of related documents. Each document is encapsulated in a
// Globe distributed shared object whose state is the element set and
// which is accessed and modified on a per-element basis.
package document

import (
	"errors"
	"fmt"
	"io/fs"
	"mime"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
)

// Errors reported by the document model.
var (
	ErrNoSuchElement = errors.New("document: no such element")
	ErrEmptyName     = errors.New("document: element name must not be empty")
)

// Element is one page element of a Web document: an addressable resource
// with a MIME content type and raw content bytes.
type Element struct {
	Name        string
	ContentType string
	Data        []byte
}

// Size returns the content length in bytes.
func (e Element) Size() int { return len(e.Data) }

// Hash returns the SHA-1 hash of the element content, as recorded in
// integrity certificates.
func (e Element) Hash() [globeid.Size]byte { return globeid.HashElement(e.Data) }

// Document is the replicable state of one GlobeDoc object: a named set of
// page elements. Its version is the Version of the last integrity
// certificate IssueCertificate signed over it, the one number that orders
// the object's states because it is the one the owner signs. Put and
// Remove change the elements alone; the next certificate names the change.
// Document is safe for concurrent use.
type Document struct {
	mu       sync.RWMutex
	elements map[string]stored
	version  uint64 // of the last certificate issued over the elements
}

// stored is an element as the document holds it: Data is the document's
// own copy, which nothing writes after Put made it, and hash is its
// SHA-1, computed once by Put for every certificate issued after.
type stored struct {
	Element
	hash [globeid.Size]byte
}

// New returns an empty document at version 0.
func New() *Document {
	return &Document{elements: make(map[string]stored)}
}

// Version returns the Version of the last certificate IssueCertificate
// signed over the document, 0 before the first.
func (d *Document) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version
}

// Put inserts or replaces an element. If the element's ContentType is
// empty it is guessed from the name's extension. The document keeps its
// own copy of e.Data, so the caller may reuse the slice afterwards.
func (d *Document) Put(e Element) error {
	if e.Name == "" {
		return ErrEmptyName
	}
	if e.ContentType == "" {
		e.ContentType = GuessContentType(e.Name)
	}
	e.Data = append([]byte(nil), e.Data...)
	s := stored{Element: e, hash: globeid.HashElement(e.Data)}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.elements[e.Name] = s
	return nil
}

// Get returns a copy of the named element.
func (d *Document) Get(name string) (Element, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.elements[name]
	if !ok {
		return Element{}, fmt.Errorf("%w: %q", ErrNoSuchElement, name)
	}
	e := s.Element
	e.Data = append([]byte(nil), e.Data...)
	return e, nil
}

// Remove deletes the named element.
func (d *Document) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.elements[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchElement, name)
	}
	delete(d.elements, name)
	return nil
}

// Names returns the sorted element names.
func (d *Document) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.elements))
	for name := range d.elements {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of elements.
func (d *Document) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.elements)
}

// TotalSize reports the summed content length of all elements.
func (d *Document) TotalSize() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	total := 0
	for _, e := range d.elements {
		total += len(e.Data)
	}
	return total
}

// Snapshot returns all elements, sorted by name. Their Data is the
// document's own copy, shared rather than copied: Put copied it in and
// nothing writes it afterwards, so it is read-only to the caller too. A
// later Put or Remove replaces the document's entry and leaves the
// slices already returned as they were.
func (d *Document) Snapshot() []Element {
	d.mu.RLock()
	out := make([]Element, 0, len(d.elements))
	for _, s := range d.elements {
		out = append(out, s.Element)
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GuessContentType maps a file extension to a MIME type, defaulting to
// application/octet-stream.
func GuessContentType(name string) string {
	if ct := mime.TypeByExtension(path.Ext(name)); ct != "" {
		return ct
	}
	return fallbackContentType(path.Ext(name))
}

// fallbackContentType is GuessContentType's answer for an extension the
// system's MIME tables do not know.
func fallbackContentType(ext string) string {
	switch strings.ToLower(ext) {
	case ".html", ".htm":
		return "text/html; charset=utf-8"
	case ".txt":
		return "text/plain; charset=utf-8"
	case ".png":
		return "image/png"
	case ".jpg", ".jpeg":
		return "image/jpeg"
	case ".gif":
		return "image/gif"
	case ".css":
		return "text/css"
	case ".js":
		return "text/javascript"
	default:
		return "application/octet-stream"
	}
}

// wellKnownContentTypes are the content types GuessContentType emits for
// the files a Web page is made of — Go's built-in MIME table and
// fallbackContentType's answers — and the bare forms of its text types.
// The table is fixed: no content type a peer sends is added to it.
var wellKnownContentTypes = [...]string{
	"application/octet-stream",
	"text/html; charset=utf-8",
	"text/plain; charset=utf-8",
	"text/plain",
	"text/css; charset=utf-8",
	"text/css",
	"text/javascript; charset=utf-8",
	"text/javascript",
	"text/xml; charset=utf-8",
	"image/png",
	"image/jpeg",
	"image/gif",
	"image/svg+xml",
	"image/webp",
	"image/avif",
	"application/json",
	"application/pdf",
	"application/wasm",
}

// InternContentType returns the content type b spells: the table's own
// string when it is well known, so decoding one allocates nothing, and
// an exact-size copy of b otherwise, which shares no memory with b.
func InternContentType(b []byte) string {
	for _, ct := range wellKnownContentTypes {
		if string(b) == ct {
			return ct
		}
	}
	return string(b)
}

// FromFS loads every file under root in fsys as an element of a new
// document, using slash-separated paths relative to root as element names.
func FromFS(fsys fs.FS, root string) (*Document, error) {
	d := New()
	err := fs.WalkDir(fsys, root, func(p string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if entry.IsDir() {
			return nil
		}
		data, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		name := strings.TrimPrefix(strings.TrimPrefix(p, root), "/")
		if name == "" {
			name = path.Base(p)
		}
		return d.Put(Element{Name: name, Data: data})
	})
	if err != nil {
		return nil, fmt.Errorf("document: loading from fs: %w", err)
	}
	return d, nil
}

// IssueCertificate produces a signed integrity certificate covering the
// document's current elements. Each entry is valid from issued until
// issued+ttl(name); ttl is consulted per element, enabling the per-element
// freshness constraints that distinguish GlobeDoc from hash-tree designs
// such as r-oSFS (paper §5).
//
// The certificate's Version is the document's Version()+1, reserved under
// the same lock that takes the elements, so every issue signs a higher
// version than the last — whether or not the elements changed, and
// however many callers issue at once. Each entry's hash is the one Put
// computed, so a reissue hashes no element.
func IssueCertificate(d *Document, oid globeid.OID, owner *keys.KeyPair, issued time.Time, ttl func(name string) time.Duration) (*cert.IntegrityCertificate, error) {
	_, c, err := IssueSnapshot(d, oid, owner, issued, ttl)
	return c, err
}

// IssueSnapshot is IssueCertificate that also returns the elements the
// certificate covers, as Snapshot would, taken under the same lock as the
// certificate's entries: however a Put races the signature, the two
// describe one state, so a bundle built from them validates.
func IssueSnapshot(d *Document, oid globeid.OID, owner *keys.KeyPair, issued time.Time, ttl func(name string) time.Duration) ([]Element, *cert.IntegrityCertificate, error) {
	d.mu.Lock()
	d.version++
	c := &cert.IntegrityCertificate{
		ObjectID: oid,
		Version:  d.version,
		Issued:   issued,
		Entries:  make([]cert.ElementEntry, 0, len(d.elements)),
	}
	elems := make([]Element, 0, len(d.elements))
	for name, s := range d.elements {
		c.Entries = append(c.Entries, cert.ElementEntry{Name: name, Hash: s.hash, NotBefore: issued})
		elems = append(elems, s.Element)
	}
	d.mu.Unlock()
	sort.Slice(c.Entries, func(i, j int) bool { return c.Entries[i].Name < c.Entries[j].Name })
	sort.Slice(elems, func(i, j int) bool { return elems[i].Name < elems[j].Name })
	for i := range c.Entries {
		c.Entries[i].Expires = issued.Add(ttl(c.Entries[i].Name))
	}
	if err := c.Sign(owner); err != nil {
		return nil, nil, err
	}
	return elems, c, nil
}

// UniformTTL returns a ttl function assigning the same validity duration
// to every element.
func UniformTTL(d time.Duration) func(string) time.Duration {
	return func(string) time.Duration { return d }
}
