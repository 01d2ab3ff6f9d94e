// detlint fixture: capability-annotated wrappers — must produce no
// findings. Mirrors the util/sync.hpp pattern without including it
// (fixtures are standalone).
struct Mutex {
    void lock();
    void unlock();
};

struct MutexLock {
    explicit MutexLock(Mutex& mutex);
};

struct FixtureAnnotatedPrimitives {
    Mutex mutex;
    int guarded = 0;
};
