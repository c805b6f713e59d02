#include "common/threading.hpp"

#include <exception>

namespace lots {

void run_spmd(int n, const std::function<void(int)>& fn,
              const std::function<void()>& on_first_error) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        fn(rank);
      } catch (...) {
        bool first = false;
        {
          std::lock_guard lk(err_mu);
          first = !first_error;
          if (first) first_error = std::current_exception();
        }
        if (first && on_first_error) on_first_error();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace lots
