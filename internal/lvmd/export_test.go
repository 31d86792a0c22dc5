package lvmd

import (
	"fmt"

	"lvm/internal/experiments/sched"
)

// ServerStats is a point-in-time load view.
type ServerStats struct {
	// Admission is the byte semaphore's state (in-use charge, queue depth,
	// correction factor).
	Admission sched.AdmissionStats
	// Sessions is the number of open sessions (admitted or queued).
	Sessions int
}

// Stats snapshots current load.
func (srv *Server) Stats() ServerStats {
	srv.mu.Lock()
	n := len(srv.sessions)
	srv.mu.Unlock()
	return ServerStats{Admission: srv.adm.Stats(), Sessions: n}
}

// KillSession aborts the identified open session server-side, as if its
// client had sent a kill frame. Unknown IDs report an error.
func (srv *Server) KillSession(id uint64) error {
	srv.mu.Lock()
	s := srv.sessions[id]
	srv.mu.Unlock()
	if s == nil {
		return fmt.Errorf("lvmd: kill of unknown session %d", id)
	}
	s.abort(reasonKilled)
	return nil
}

// Kill asks the daemon to abort the in-flight session. Safe from any
// goroutine; the session's Wait returns ErrKilled.
func (c *Client) Kill() error {
	return c.w.Send(message{Type: msgKill})
}
