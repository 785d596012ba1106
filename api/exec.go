package api

// Exec is a resolved query request: the execution identity a Cursor
// freezes — predicate, stream set, options, pins, the offset the page
// starts at, form and mode — plus the page size. Both tiers execute from
// it; the serve layer adds the compiled plan, the router its
// partial-answer opt-in.
//
// For a cursor continuation every field is the token's. For a fresh
// request Expr is still the request text (the serve layer replaces it with
// the canonical form on compile; the router forwards it to the shards),
// Streams is the normalized requested set (empty = all, resolved at
// admission) and At holds the explicit pins (nil = snapshot).
type Exec struct {
	Cursor
	// Limit is the page size; 0 = everything from Offset on.
	Limit int
	// Frames selects the frames form: a bare one-leaf request with no
	// ranking or paging ask, answered through the single-class engine.
	// Otherwise Cursor.Form decides (FormTracks, or empty = ranked).
	Frames bool
}

// ResponseForm names the form the execution answers in.
func (e *Exec) ResponseForm() string {
	switch {
	case e.Frames:
		return FormFrames
	case e.Form == FormTracks:
		return FormTracks
	}
	return FormRanked
}

// ExprShape is what the form rule needs to know about a parsed predicate.
// It is syntactic — no class space needed — so the router decides the form
// without compiling.
type ExprShape struct {
	// Temporal reports a temporal operator anywhere in the expression: the
	// answer is object tracks.
	Temporal bool
	// SingleLeaf reports a bare class name with default leaf options: the
	// paper's single-class query, answered in the frames form unless the
	// request asks for ranking or paging.
	SingleLeaf bool
}

// ResolveRequest is the one request-shape rule of POST /v1/query: field
// validation, cursor expansion, mode normalisation and the frames / ranked
// / tracks decision, with the error a client sees for each violation. The
// serve layer and the router both resolve through it, so the tiers cannot
// disagree on what a request means. parse supplies the predicate's shape
// (keeping this package free of the parser); it runs only for fresh
// requests whose fields validate, and its error is reported as bad_expr.
func ResolveRequest(req *QueryRequest, parse func(expr string) (ExprShape, error)) (*Exec, *Error) {
	if req.Limit < 0 {
		return nil, Errorf(CodeBadRequest, "negative query parameter")
	}
	if req.Cursor != "" {
		// A cursor request carries only the token (and optionally Limit):
		// everything else is frozen inside the token and must be zero.
		if req.Expr != "" || len(req.Streams) > 0 || req.TopK != 0 || req.Kx != 0 ||
			req.Start != 0 || req.End != 0 || req.MaxClusters != 0 || len(req.At) > 0 ||
			req.Form != "" || req.Mode != "" {
			return nil, Errorf(CodeBadCursor,
				"a cursor request must carry only cursor (and optionally limit); everything else is frozen in the token")
		}
		cur, err := DecodeCursor(req.Cursor)
		if err != nil {
			return nil, Errorf(CodeBadCursor, "%v", err)
		}
		return &Exec{Cursor: *cur, Limit: req.Limit}, nil
	}
	if req.Expr == "" {
		return nil, Errorf(CodeBadRequest, "missing required field: expr")
	}
	if req.TopK < 0 || req.Kx < 0 || req.MaxClusters < 0 || req.Start < 0 || req.End < 0 {
		return nil, Errorf(CodeBadRequest, "negative query parameter")
	}
	shape, err := parse(req.Expr)
	if err != nil {
		return nil, Errorf(CodeBadExpr, "%v", err)
	}
	mode, aerr := NormalizeMode(req.Mode, req.TopK)
	if aerr != nil {
		return nil, aerr
	}
	ex := &Exec{
		Cursor: Cursor{
			Expr:        req.Expr,
			Streams:     NormalizeStreams(req.Streams),
			TopK:        req.TopK,
			Kx:          req.Kx,
			Start:       req.Start,
			End:         req.End,
			MaxClusters: req.MaxClusters,
			At:          req.At,
			Mode:        mode,
		},
		Limit: req.Limit,
	}
	if shape.Temporal {
		if mode != "" {
			return nil, Errorf(CodeBadRequest,
				"mode %q applies to ranked executions only, not temporal (tracks-form) expressions", mode)
		}
		if req.Form != "" && req.Form != FormTracks {
			return nil, Errorf(CodeBadRequest,
				"temporal expressions answer in the %q form; form must be omitted or %q", FormTracks, FormTracks)
		}
		ex.Form = FormTracks
		return ex, nil
	}
	if req.Form != "" && req.Form != FormRanked {
		return nil, Errorf(CodeBadRequest,
			"form must be omitted or %q (%q is for temporal expressions)", FormRanked, FormTracks)
	}
	// Everything but a bare one-leaf plan — compound predicates, TopK,
	// paging, or an explicit form override — takes the ranked path.
	ex.Frames = shape.SingleLeaf && req.TopK == 0 && req.Limit == 0 && req.Form != FormRanked
	return ex, nil
}
