package service

// Injector is the service's fault-injection seam. Production runs with
// Config.Chaos nil — every hook site is a single nil check — while soak
// and robustness tests install an implementation that delays builds,
// allocates transient garbage on the query path (driving the memory
// budget across its watermarks), or stalls response writes (a slow client
// draining its socket). cmd/aliasd wires the -chaos flag to a trivial
// implementation; the service tests use channel-blocking injectors to
// hold requests at precise points.
//
// Hooks run synchronously on the request/build goroutine, after admission
// checks — an injected fault consumes an admitted slot, exactly like real
// slow work would.
type Injector interface {
	// BuildStart runs at the top of every module build (sync upload, async
	// build worker or store recovery) with the module name. A panic in it
	// fails that build like a panic in the build itself.
	BuildStart(module string)
	// QueryStart runs after a /v1/query batch passes admission and
	// decoding, before evaluation.
	QueryStart(module string, pairs int)
	// ResponseWrite runs immediately before a successful /v1/query
	// response body is written.
	ResponseWrite()
	// StoreWrite runs after each completed physical write step of a store
	// mutation (see the store.Step* constants). cmd/aliasd's
	// crash-after-write=N injector counts these and hard-exits on the Nth —
	// the crash-recovery tests' stand-in for a kill -9 mid-persist.
	StoreWrite(step string)
}

// injectBuild, injectQuery and injectResponse are the nil-safe call sites.
func (s *Service) injectBuild(module string) {
	if s.cfg.Chaos != nil {
		s.cfg.Chaos.BuildStart(module)
	}
}

func (s *Service) injectQuery(module string, pairs int) {
	if s.cfg.Chaos != nil {
		s.cfg.Chaos.QueryStart(module, pairs)
	}
}

func (s *Service) injectResponse() {
	if s.cfg.Chaos != nil {
		s.cfg.Chaos.ResponseWrite()
	}
}

func (s *Service) injectStoreWrite(step string) {
	if s.cfg.Chaos != nil {
		s.cfg.Chaos.StoreWrite(step)
	}
}
