// Fixture: docstore-layer file that is fully compliant — threaded
// layers may lock annotated mutexes, wrap private-constructor `new` in a
// smart pointer, and mention std::thread in comments/strings freely.
#include <memory>

#include "common/mutex.h"
#include "docstore/collection.h"

namespace hotman::docstore {

class Fine {
 public:
  void Touch() {
    MutexLock lock(&mu_);
    label_ = "a std::thread walks into a new bar";  // prose, not code
  }

 private:
  Mutex mu_;
  std::string label_;
};

struct Hidden {
  static std::unique_ptr<Hidden> Make() {
    return std::unique_ptr<Hidden>(new Hidden());  // private ctor: allowed
  }

 private:
  Hidden() = default;
};

}  // namespace hotman::docstore
