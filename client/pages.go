package client

import (
	"context"
	"fmt"
	"reflect"

	"focus/api"
)

// Pager iterates a ranked or temporal (tracks-form) query page by page
// through the opaque cursor and reassembles the pages as it goes. The
// first Next issues the seed request with the page limit; later Next calls
// follow the cursor the previous response returned, so every page is
// served from the same execution pinned at the first page's watermark
// vector — the concatenation of all pages is bit-identical to the one-shot
// answer at that vector, which Assembled returns.
//
//	pager := c.Pager(&api.QueryRequest{Expr: "car & person", TopK: 50}, 10)
//	for pager.More() {
//	    page, err := pager.Next(ctx) // page.Items, or page.Tracks
//	    ...
//	}
type Pager struct {
	c     *Client
	seed  api.QueryRequest
	limit int
	next  string // cursor for the next page ("" before the first)
	done  bool
	// first is the first page: its metadata and cost counters describe the
	// actual execution (later pages are cache reads of it by construction).
	first  *api.QueryResponse
	items  []api.Item
	tracks []api.TrackItem
}

// Pager starts a paged read of req with pages of at most limit items.
// The request's own Limit and Cursor fields are ignored (the pager owns
// paging); limit must be positive.
func (c *Client) Pager(req *api.QueryRequest, limit int) *Pager {
	return &Pager{c: c, seed: *req, limit: limit}
}

// More reports whether another Next call may yield items.
func (p *Pager) More() bool { return !p.done }

// Next fetches the next page and returns its response (Items or Tracks
// hold the page, by form). It verifies the cross-page invariants while
// collecting: every page must answer in the first page's form and echo the
// same canonical expr, pinned watermark vector, and TotalItems. After the
// final page (the server returns no continuation cursor), More reports
// false; any error also ends the read.
func (p *Pager) Next(ctx context.Context) (*api.QueryResponse, error) {
	if p.done {
		return nil, fmt.Errorf("client: Next called after the final page")
	}
	p.done = true
	if p.limit <= 0 {
		return nil, fmt.Errorf("client: page limit must be positive, got %d", p.limit)
	}
	req := api.QueryRequest{Limit: p.limit, Cursor: p.next}
	if p.first == nil {
		req = p.seed
		req.Limit, req.Cursor = p.limit, ""
	}
	resp, err := p.c.Query(ctx, &req)
	if err != nil {
		return nil, err
	}
	switch first := p.first; {
	case resp.Form != api.FormRanked && resp.Form != api.FormTracks:
		return nil, fmt.Errorf("client: paged read answered in %q form (paging needs the ranked or tracks form)", resp.Form)
	case first == nil:
		p.first = resp
	case resp.Form != first.Form:
		return nil, fmt.Errorf("client: page changed form %q -> %q", first.Form, resp.Form)
	case resp.Expr != first.Expr:
		return nil, fmt.Errorf("client: page changed canonical expr %q -> %q", first.Expr, resp.Expr)
	case !reflect.DeepEqual(resp.Watermarks, first.Watermarks):
		return nil, fmt.Errorf("client: page changed pinned watermarks %v -> %v", first.Watermarks, resp.Watermarks)
	case resp.TotalItems != first.TotalItems:
		return nil, fmt.Errorf("client: page changed total_items %d -> %d", first.TotalItems, resp.TotalItems)
	}
	p.items = append(p.items, resp.Items...)
	p.tracks = append(p.tracks, resp.Tracks...)
	p.next = resp.Cursor
	p.done = p.next == ""
	return resp, nil
}

// Assembled returns the completed read as one response: Items (or Tracks)
// are the concatenated pages, everything else comes from the first page.
// The result is directly comparable to — and must be bit-identical with —
// the one-shot answer at the pinned vector. It fails unless every page
// arrived and the item count adds up to the server's TotalItems.
func (p *Pager) Assembled() (*api.QueryResponse, error) {
	if p.first == nil {
		return nil, fmt.Errorf("client: paged read yielded no pages")
	}
	if n := len(p.items) + len(p.tracks); p.next != "" || n != p.first.TotalItems {
		return nil, fmt.Errorf("client: pages yielded %d items, server reported %d", n, p.first.TotalItems)
	}
	out := *p.first
	out.Items, out.Tracks, out.Cursor = p.items, p.tracks, ""
	return &out, nil
}

// CollectPages runs a complete paged read of either form and returns the
// reassembled response (see Pager.Assembled).
func (c *Client) CollectPages(ctx context.Context, req *api.QueryRequest, limit int) (*api.QueryResponse, error) {
	pager := c.Pager(req, limit)
	for pager.More() {
		if _, err := pager.Next(ctx); err != nil {
			return nil, err
		}
	}
	return pager.Assembled()
}
