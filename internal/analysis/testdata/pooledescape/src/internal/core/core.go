// Fixture dependency for the pooledescape analyzer: a miniature of the
// real internal/core completion queue. An Outbox chain is a sanctioned
// holder of pooled job frames — delivering a frame into one transfers it —
// and Take hands the frames, and the duty to release them, to its caller.
package core

// Job is a pooled job frame.
type Job struct {
	next *Job
}

// Release returns the frame to its pool.
func (j *Job) Release() {}

// ReleaseJobs releases a whole drain.
func ReleaseJobs(jobs []*Job) {}

// Outbox chains finished jobs for one receiver.
type Outbox struct {
	head *Job
}

// Push delivers j.
func (ob *Outbox) Push(j *Job) {
	j.next, ob.head = ob.head, j
}

// Take appends every delivered job to dst and empties the box.
func (ob *Outbox) Take(dst []*Job) []*Job {
	for j := ob.head; j != nil; j = j.next {
		dst = append(dst, j)
	}
	ob.head = nil
	return dst
}
